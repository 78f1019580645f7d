// Multi-stream bulk entropy coding: the zstd-style N-stream Huffman split.
//
// Single-stream Huffman decode is latency-bound, not bandwidth-bound: each
// decoded symbol's length feeds the next Refill/Peek/Consume, so the CPU
// sits on one serial dependency chain. EncodeMultiU16 splits the symbol
// sequence into N contiguous chunks, encodes each as an independent
// byte-aligned bitstream under one shared code table, and DecodeMultiU16
// walks the streams round-robin in one wide loop — N dependency chains in
// flight, which is where the throughput comes from (zstd's 4-stream Huffman
// does exactly this). The code itself comes from the same two functions as
// the single-stream format's: buildCodec on encode, readCodec on decode.
//
// Blob layout (all integers little-endian / uvarint as noted):
//
//	[0] multiMagic (0xF5)
//	uvarint  symbol count n
//	uvarint  stream count N   (1..maxStreams)
//	uvarint  length-table byte size L
//	[L]      code-length table (writeLengthTable serialization, byte-padded)
//	[4*N]    per-stream byte sizes, uint32 LE (the jump table)
//	[...]    N concatenated byte-aligned sub-streams
//
// The marker byte cannot collide with the single-stream format: that format
// opens with a 24-bit alphabet count whose first (most significant) byte is
// 0x00 or 0x01 for every alphabet ≤ 65536, never 0xF5. DecodeMultiU16 uses
// this to transparently fall back to the single-stream decoder on v1 blobs, so callers
// migrated to the multi-stream entry points keep decoding old streams.
package huffman

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitio"
	"repro/internal/lanes"
	"repro/internal/sched"
)

const (
	// multiMagic opens every multi-stream blob. See the collision argument
	// in the package comment above.
	multiMagic = 0xF5

	// DefaultStreams is the stream count the quantization stages use — four
	// independent dependency chains, matching zstd's 4-stream Huffman.
	DefaultStreams = 4

	// maxStreams bounds the stream count a blob may declare; the decoder
	// keeps per-stream state in fixed stack arrays of this size.
	maxStreams = 16

	// multiMinSymbols is the break-even point below which EncodeMultiU16
	// emits the single-stream format instead: per-stream framing costs
	// 4 bytes plus up to 7 padding bits each, which tiny blobs can't repay.
	multiMinSymbols = 512
)

// EncodeMultiU16 encodes symbols into the multi-stream blob format using
// streams independent bitstreams (DefaultStreams for the standard pipeline).
// Inputs shorter than multiMinSymbols, or streams == 1, fall back to the
// single-stream format (encodeSeq); DecodeMultiU16 handles both. The blob
// is AppendMulti's section without its length, in a buffer from the shared
// sched byte pool.
func EncodeMultiU16(symbols []uint16, alphabet, streams int) ([]byte, error) {
	sec, _, err := AppendMulti(nil, symbols, alphabet, streams, 1, Bounds{})
	if err != nil {
		return nil, err
	}
	return unprefixed(sec), nil
}

// unprefixed moves the blob of a section AppendMulti wrote onto nil over its
// length prefix, so the buffer still starts where the pool handed it out
// and returns to the pool whole.
func unprefixed(sec []byte) []byte {
	_, k := binary.Uvarint(sec)
	return sec[:copy(sec, sec[k:])]
}

// Parts is where a blob's bytes go: its code-length table; its framing
// (the marker, the counts and the jump table of a multi-stream blob, the
// symbol count of a single-stream one); and its coded streams, their padding
// bits included. A single-stream blob's first codes share the table's last
// byte, which Codes counts.
type Parts struct{ Table, Jump, Codes int }

// AppendMulti appends to dst the section of symbols' blob: the blob
// EncodeMultiU16 returns behind its length as a minimal uvarint, as
// ebcl.AppendSection writes a section, with the blob written in place. With
// step ≥ 2 the code is built from a count of every step-th symbol
// (buildSampledCodec): every symbol must be 0 or in [b.Lo, b.Hi], and
// b.Zeros of them 0. A code from a sample spends a little more on the
// symbols than their own count's would, and saves the count's pass over
// every symbol. It also returns the blob's Parts. dst grows into a pooled
// buffer when its capacity falls short.
func AppendMulti(dst []byte, symbols []uint16, alphabet, streams, step int, b Bounds) ([]byte, Parts, error) {
	if streams < 1 || streams > maxStreams {
		return nil, Parts{}, fmt.Errorf("huffman: stream count %d outside [1,%d]", streams, maxStreams)
	}
	if alphabet > 1<<16 {
		return nil, Parts{}, fmt.Errorf("huffman: alphabet %d exceeds uint16 symbols", alphabet)
	}
	if streams == 1 || len(symbols) < multiMinSymbols {
		blob, head, err := encodeSeq(symbols, alphabet)
		if err != nil {
			return nil, Parts{}, err
		}
		dst = binary.AppendUvarint(reserve(dst, binary.MaxVarintLen64+len(blob)), uint64(len(blob)))
		dst = append(dst, blob...)
		sched.PutBytes(blob)
		return dst, Parts{Table: head - 4, Jump: 4, Codes: len(blob) - head}, nil
	}
	var c *Codec
	var bits uint64
	var err error
	if step >= 2 {
		c, bits, err = buildSampledCodec(symbols, alphabet, step, b)
	} else {
		c, bits, err = buildCodec(symbols, alphabet)
	}
	if err != nil {
		return nil, Parts{}, err
	}
	out, parts := encodeMulti(dst, symbols, streams, c, bits)
	return out, parts, nil
}

// reserve returns dst with room for n more bytes, moved into a pooled buffer
// when its capacity falls short.
func reserve(dst []byte, n int) []byte {
	if cap(dst)-len(dst) < n {
		dst = append(sched.GetBytes(len(dst)+n), dst...)
	}
	return dst
}

// encodeMulti appends the multi-stream blob of symbols under c, which it
// returns to the pool, to dst behind its uvarint length; bits is the coded
// size it sizes the blob for. The prefix's width comes from that size: when
// the blob turns out to need another width, the blob moves to fit the
// minimal one.
func encodeMulti(dst []byte, symbols []uint16, streams int, c *Codec, bits uint64) ([]byte, Parts) {
	defer putCodec(c)

	// The length table is serialized into its own byte-padded segment so the
	// jump table and sub-streams after it stay byte-addressable.
	tw := bitio.NewWriterBuffer(sched.GetBytes(len(c.lengths)/4 + 16))
	writeLengthTable(tw, c.lengths)
	tbl := tw.Bytes()

	// Room for the whole blob: each stream's codes take at most one padding
	// byte beyond bits/8, and appendCodes stores 8 bytes at a time.
	n := len(symbols)
	size := 1 + 3*binary.MaxVarintLen64 + len(tbl) + 4*streams + int(bits/8) + streams
	dst = reserve(dst, binary.MaxVarintLen64+size+8)
	at, width := len(dst), uvarintLen(uint64(size))
	dst = dst[:at+width]
	start := len(dst)
	out := append(dst, multiMagic)
	out = binary.AppendUvarint(out, uint64(n))
	out = binary.AppendUvarint(out, uint64(streams))
	out = binary.AppendUvarint(out, uint64(len(tbl)))
	out = append(out, tbl...)
	sched.PutBytes(tbl)

	// Reserve the fixed-width jump table and backfill each stream's byte
	// size once it is encoded — no second pass, no intermediate buffers.
	sizePos := len(out)
	var zeros [4 * maxStreams]byte
	out = append(out, zeros[:4*streams]...)
	parts := Parts{Table: len(tbl), Jump: len(out) - start - len(tbl)}

	// First n%streams chunks carry one extra symbol; the decoder derives the
	// same split from n and streams alone.
	base, ext := n/streams, n%streams
	off := 0
	for i := 0; i < streams; i++ {
		cnt := base
		if i < ext {
			cnt++
		}
		from := len(out)
		out = appendCodesU16(out, c.enc, symbols[off:off+cnt], 0, 0)
		binary.LittleEndian.PutUint32(out[sizePos+4*i:], uint32(len(out)-from))
		off += cnt
	}
	parts.Codes = len(out) - sizePos - 4*streams
	blob := len(out) - start
	if w := uvarintLen(uint64(blob)); w != width {
		out = append(out, zeros[:max(w-width, 0)]...)
		copy(out[at+w:], out[start:start+blob])
		out = out[:at+w+blob]
	}
	binary.PutUvarint(out[at:], uint64(blob))
	return out, parts
}

// uvarintLen is the width of v as a uvarint.
func uvarintLen(v uint64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], v)
}

// DecodeMultiU16 reverses EncodeMultiU16 into a buffer drawn from the sched
// uint16 pool (recycle via sched.PutUint16s). Blobs without the multi-stream
// marker are decoded as single-stream blobs (decodeAll), so this is a
// strict superset of the single-stream decoder.
func DecodeMultiU16(data []byte, alphabet int) ([]uint16, error) {
	out, _, _, err := DecodeMultiSpan(data, alphabet)
	return out, err
}

// DecodeMultiSpan is DecodeMultiU16 that also returns the least and greatest
// symbol other than 0 the blob's code holds: every symbol decoded is 0 or in
// [lo, hi], and lo > hi when the code holds no other symbol.
func DecodeMultiSpan(data []byte, alphabet int) (out []uint16, lo, hi uint16, err error) {
	if alphabet > 1<<16 {
		return nil, 0, 0, fmt.Errorf("huffman: alphabet %d exceeds uint16 symbols", alphabet)
	}
	if len(data) == 0 || data[0] != multiMagic {
		return decodeAll(data, alphabet, sched.GetUint16s, sched.PutUint16s)
	}
	var m multiBlob
	if out, err = openMulti(data, alphabet, &m); err != nil {
		return nil, 0, 0, err
	}
	defer putCodec(m.c)
	if err := m.decode(out); err != nil {
		sched.PutUint16s(out)
		return nil, 0, 0, err
	}
	lo, hi = m.c.span()
	return out, lo, hi, nil
}

// multiBlob is a multi-stream blob opened for decoding: its code, and each
// sub-stream beside the output chunk it decodes into.
type multiBlob struct {
	c       *Codec
	streams int
	srcs    [maxStreams][]byte
	outs    [maxStreams][]uint16
}

// openMulti parses the header of a blob that starts with multiMagic, reads
// its code, checks its jump table, and splits a pooled output buffer into
// m's chunks the way the encoder split the input. On success the caller owns
// out (sched.PutUint16s) and m.c (putCodec).
func openMulti(data []byte, alphabet int, m *multiBlob) ([]uint16, error) {
	pos := 1
	var hdr [3]uint64 // symbol count, stream count, length-table byte size
	for i := range hdr {
		v, k := binary.Uvarint(data[pos:])
		if k <= 0 {
			return nil, ErrCorrupt
		}
		hdr[i] = v
		pos += k
	}
	n64, ns64, tl64 := hdr[0], hdr[1], hdr[2]
	if ns64 < 1 || ns64 > maxStreams || tl64 > uint64(len(data)-pos) {
		return nil, ErrCorrupt
	}
	streams, tblLen := int(ns64), int(tl64)
	// Every symbol costs at least one bit; reject inflated counts before
	// allocating the output.
	if n64 > 8*uint64(len(data)-pos-tblLen) {
		return nil, ErrCorrupt
	}
	n := int(n64)

	c, err := readCodec(bitio.NewReader(data[pos:pos+tblLen]), alphabet)
	if err != nil {
		return nil, err
	}
	out, err := m.split(data, pos+tblLen, n, streams)
	if err != nil {
		putCodec(c)
		return nil, err
	}
	m.c = c
	return out, nil
}

// split checks the jump table at data[pos:] and the sub-streams it
// delimits, then splits a pooled n-symbol output buffer into m's chunks the
// way the encoder split the input.
func (m *multiBlob) split(data []byte, pos, n, streams int) ([]uint16, error) {
	if 4*streams > len(data)-pos {
		return nil, ErrCorrupt
	}
	start := pos + 4*streams
	for i := 0; i < streams; i++ {
		sz := binary.LittleEndian.Uint32(data[pos+4*i:])
		if uint64(sz) > uint64(len(data)-start) {
			return nil, ErrCorrupt
		}
		m.srcs[i] = data[start : start+int(sz)]
		start += int(sz)
	}
	// The jump table must account for the blob exactly: trailing slack would
	// let corrupted sizes alias each other undetected.
	if start != len(data) {
		return nil, ErrCorrupt
	}
	var cnts [maxStreams]int
	base, ext := n/streams, n%streams
	for i := 0; i < streams; i++ {
		cnts[i] = base
		if i < ext {
			cnts[i]++
		}
		// A sub-stream shorter than one bit per symbol cannot be valid.
		if cnts[i] > 8*len(m.srcs[i]) {
			return nil, ErrCorrupt
		}
	}
	out := sched.GetUint16s(n)[:n]
	m.streams = streams
	off := 0
	for i := 0; i < streams; i++ {
		m.outs[i] = out[off : off+cnts[i]]
		off += cnts[i]
	}
	return out, nil
}

// pairMinSymbols is the blob size from which decode may build the
// double-symbol table. Its 2^tableBits-entry build costs microseconds a
// blob, which the pair loop earns back only on larger blobs:
// BenchmarkPairGate puts the crossover at 10 Ki symbols on
// quantization-like codes (+6 % at 8 Ki, even at 10 Ki, −3 % at 12 Ki, −17 %
// at 32 Ki).
const pairMinSymbols = 10 << 10

// usePairs reports whether decode4 should take the double-symbol table on an
// n-symbol blob. Only a four-stream blob reaches decode4. Beyond the size
// gate, a probe yields two symbols only when two codes fit in the
// tableBits-bit index, so the sub-streams must average at most tableBits/2
// bits a symbol. Through the pair probe a single-symbol code (tableBits 1,
// one bit a symbol: a delta residual that quantizes to zero) runs a third
// slower, and codes averaging 6 and 8 bits 6 % and 27 % slower.
func (m *multiBlob) usePairs(n int) bool {
	if n < pairMinSymbols || m.streams != DefaultStreams {
		return false
	}
	bytes := 0
	for _, s := range m.srcs[:m.streams] {
		bytes += len(s)
	}
	return 16*bytes <= n*int(m.c.tableBits)
}

// decode decodes every sub-stream of the blob into out, the buffer m's chunks
// split: all at once when every sub-stream is a single-symbol code's zero
// bits (fillSingle), else through decodeWith, with the double-symbol table
// where usePairs says so.
func (m *multiBlob) decode(out []uint16) error {
	if m.fillSingle(out) {
		return nil
	}
	var pairs []uint64
	if m.usePairs(len(out)) {
		pairs = m.c.buildPairs()
	}
	return m.decodeWith(pairs)
}

// decodeWith decodes every sub-stream into its chunk: four streams under a
// nonempty code through decode4 (taking pairs when it is not nil), then what
// is left of every stream, or the whole of any other, through decodeSeq.
func (m *multiBlob) decodeWith(pairs []uint64) error {
	var rs [maxStreams]bitio.Reader
	var ps [maxStreams]int
	for i, src := range m.srcs[:m.streams] {
		rs[i].Reset(src)
	}
	if m.streams == DefaultStreams && len(m.c.table) > 0 {
		p := m.c.decode4((*[4][]byte)(m.srcs[:4]), (*[4][]uint16)(m.outs[:4]), pairs,
			[4]*bitio.Reader{&rs[0], &rs[1], &rs[2], &rs[3]})
		copy(ps[:], p[:])
	}
	for i := range m.streams {
		if err := decodeSeq(&rs[i], m.c, m.outs[i][ps[i]:]); err != nil {
			return err
		}
	}
	return nil
}

// fillSingle decodes a blob whose code has one coded symbol of one bit —
// code 0, as in a delta residual that quantizes to zero — when every
// sub-stream is exactly its chunk's bits rounded up to bytes, all zero: it
// fills out with the symbol and reports true. Any other blob, nonzero
// padding bits and a lone code longer than one bit included, is left to the
// decode loops, so what they return and refuse stays theirs.
func (m *multiBlob) fillSingle(out []uint16) bool {
	if len(m.c.sorted) != 1 || m.c.maxLen != 1 || len(out) == 0 {
		return false
	}
	for i, src := range m.srcs[:m.streams] {
		if len(src) != (len(m.outs[i])+7)/8 || !allZero(src) {
			return false
		}
	}
	out[0] = uint16(m.c.sorted[0])
	for n := 1; n < len(out); n *= 2 {
		copy(out[n:], out[:n])
	}
	return true
}

// allZero reports whether every byte of b is zero.
func allZero(b []byte) bool {
	var or uint64
	for ; len(b) >= 8; b = b[8:] {
		or |= binary.LittleEndian.Uint64(b)
	}
	for _, v := range b {
		or |= uint64(v)
	}
	return or == 0
}

// decode4 is the wide decode loop: the four readers rs, each Reset to its
// srcs stream, advanced round-robin until any stream's buffered bits dip
// below one max-length code, then refilled. One refill buffers ≥ 56 bits and
// real quantization codes average ~5, so each refill round covers several
// symbols per stream. The interleave keeps four independent chains in the
// pipeline — the single-stream decoder's refill→peek→consume latency chain
// is the bulk-decode bottleneck. With the double-symbol table pairs
// (buildPairs) each probe resolves one or two symbols, and a zero pair entry
// falls through to the primary-table probe; with pairs nil only that probe
// runs. c must have a nonempty decode table.
//
// With BMI2 the kernel decodes first and this loop carries on from where it
// stopped. It stops at any fast-path miss (stream tail, zero entry,
// mid-code truncation) and returns each stream's symbols written, with rs at
// the bits that follow; decodeSeq decodes the rest.
func (c *Codec) decode4(srcs *[4][]byte, outs *[4][]uint16, pairs []uint64, rs [4]*bitio.Reader) (ps [4]int) {
	if lanes.On() {
		ps = c.decode4Kernel(srcs, outs, pairs, rs)
	}
	// Every entry's length (every probe width tb+sub, and a pair's bits,
	// which fit in tb) is at most maxLen, so a stream holding maxLen
	// buffered bits can always take one more probe without rechecking
	// mid-probe.
	ml := uint(c.maxLen)
	// A pair writes two output slots (the second is overwritten later when
	// the entry holds one symbol), so with pairs a round keeps two free.
	need := 1
	if pairs != nil {
		need = 2
	}
	full := func() bool {
		return min(rs[0].Buffered(), rs[1].Buffered(), rs[2].Buffered(), rs[3].Buffered()) >= ml
	}
	tab, tb := c.table, c.tableBits
	for {
		// rem bounds the round by the fullest any chunk can get; chunk
		// lengths differ by at most one, so on output exhaustion a stream
		// has at most a few symbols left to decodeSeq.
		rem := min(len(outs[0])-ps[0], len(outs[1])-ps[1], len(outs[2])-ps[2], len(outs[3])-ps[3])
		for _, r := range rs {
			r.Refill()
		}
		if rem < need || !full() {
			return ps
		}
		for ; rem >= need && full(); rem -= need {
			for k, r := range rs {
				o, p := outs[k], ps[k]
				if pairs != nil {
					if e := pairs[r.Peek(tb)]; e != 0 {
						r.ConsumeFast(uint(e>>32) & 63)
						o[p], o[p+1] = uint16(e), uint16(e>>16)
						ps[k] = p + 1 + int(e>>40)
						continue
					}
				}
				s, n := probe(tab, tb, r.Peek(64))
				if n == 0 {
					return ps
				}
				r.ConsumeFast(n)
				o[p] = s
				ps[k] = p + 1
			}
		}
	}
}
