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
// this to transparently fall back to DecodeAllU16 on v1 blobs, so callers
// migrated to the multi-stream entry points keep decoding old streams.
package huffman

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitio"
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
// single-stream format (encodeSeq); DecodeMultiU16 handles both. The
// returned buffer comes from the shared sched byte pool.
func EncodeMultiU16(symbols []uint16, alphabet, streams int) ([]byte, error) {
	if streams < 1 || streams > maxStreams {
		return nil, fmt.Errorf("huffman: stream count %d outside [1,%d]", streams, maxStreams)
	}
	if alphabet > 1<<16 {
		return nil, fmt.Errorf("huffman: alphabet %d exceeds uint16 symbols", alphabet)
	}
	if streams == 1 || len(symbols) < multiMinSymbols {
		return encodeSeq(symbols, alphabet)
	}

	c, err := buildCodec(symbols, alphabet)
	if err != nil {
		return nil, err
	}

	n := len(symbols)
	out := sched.GetBytes(n/2 + 128)[:0]
	out = append(out, multiMagic)
	out = binary.AppendUvarint(out, uint64(n))
	out = binary.AppendUvarint(out, uint64(streams))

	// The length table is serialized into its own byte-padded segment so the
	// jump table and sub-streams after it stay byte-addressable.
	tw := bitio.NewWriterBuffer(sched.GetBytes(len(c.lengths)/4 + 16))
	writeLengthTable(tw, c.lengths)
	tbl := tw.Bytes()
	out = binary.AppendUvarint(out, uint64(len(tbl)))
	out = append(out, tbl...)
	sched.PutBytes(tbl)

	// Reserve the fixed-width jump table and backfill each stream's byte
	// size once it is encoded — no second pass, no intermediate buffers.
	sizePos := len(out)
	var zeros [4 * maxStreams]byte
	out = append(out, zeros[:4*streams]...)

	// First n%streams chunks carry one extra symbol; the decoder derives the
	// same split from n and streams alone.
	base, ext := n/streams, n%streams
	enc := c.enc
	off := 0
	for i := 0; i < streams; i++ {
		cnt := base
		if i < ext {
			cnt++
		}
		start := len(out)
		w := bitio.NewWriterAppend(out)
		// Two codes per accumulator push: the writer is MSB-first, so the
		// pair packs as c1<<n2|c2 in n1+n2 bits — at most 2×MaxCodeLen = 48,
		// always within one WriteBits. Halving the push count halves the
		// per-call flush checks on the hottest loop in the encoder; the
		// emitted bitstream is identical to the one-push-per-symbol form.
		sub := symbols[off : off+cnt]
		j := 0
		for ; j+1 < len(sub); j += 2 {
			e1, e2 := enc[sub[j]], enc[sub[j+1]]
			n2 := uint(e2 & entryLenMask)
			w.WriteBits(uint64(e1>>5)<<n2|uint64(e2>>5), uint(e1&entryLenMask)+n2)
		}
		if j < len(sub) {
			e := enc[sub[j]]
			w.WriteBits(uint64(e>>5), uint(e&entryLenMask))
		}
		out = w.Bytes()
		binary.LittleEndian.PutUint32(out[sizePos+4*i:], uint32(len(out)-start))
		off += cnt
	}
	putCodec(c)
	return out, nil
}

// DecodeMultiU16 reverses EncodeMultiU16 into a buffer drawn from the sched
// uint16 pool (recycle via sched.PutUint16s). Blobs without the multi-stream
// marker are delegated to DecodeAllU16, so this is a strict superset of the
// single-stream decoder.
func DecodeMultiU16(data []byte, alphabet int) ([]uint16, error) {
	if len(data) == 0 || data[0] != multiMagic {
		return DecodeAllU16(data, alphabet)
	}
	if alphabet > 1<<16 {
		return nil, fmt.Errorf("huffman: alphabet %d exceeds uint16 symbols", alphabet)
	}
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
	defer putCodec(c)
	pos += tblLen

	if 4*streams > len(data)-pos {
		return nil, ErrCorrupt
	}
	var offs [maxStreams + 1]int
	offs[0] = pos + 4*streams
	for i := 0; i < streams; i++ {
		sz := binary.LittleEndian.Uint32(data[pos+4*i:])
		if uint64(sz) > uint64(len(data)-offs[i]) {
			return nil, ErrCorrupt
		}
		offs[i+1] = offs[i] + int(sz)
	}
	// The jump table must account for the blob exactly: trailing slack would
	// let corrupted sizes alias each other undetected.
	if offs[streams] != len(data) {
		return nil, ErrCorrupt
	}

	out := sched.GetUint16s(n)[:n]
	if err := c.decodeStreams(data, offs[:streams+1], out, streams); err != nil {
		sched.PutUint16s(out)
		return nil, err
	}
	return out, nil
}

// decodeStreams splits out into the per-stream chunks mirroring the encoder
// and decodes every sub-stream, taking the interleaved 4-wide path when the
// blob used the default stream count.
func (c *Codec) decodeStreams(data []byte, offs []int, out []uint16, streams int) error {
	n := len(out)
	base, ext := n/streams, n%streams
	var srcs [maxStreams][]byte
	var chunks [maxStreams][]uint16
	off := 0
	for i := 0; i < streams; i++ {
		cnt := base
		if i < ext {
			cnt++
		}
		srcs[i] = data[offs[i]:offs[i+1]]
		chunks[i] = out[off : off+cnt]
		// A sub-stream shorter than one bit per symbol cannot be valid.
		if cnt > 8*len(srcs[i]) {
			return ErrCorrupt
		}
		off += cnt
	}
	if streams == DefaultStreams {
		return c.decode4((*[4][]byte)(srcs[:4]), (*[4][]uint16)(chunks[:4]))
	}
	var r bitio.Reader
	for i := 0; i < streams; i++ {
		r.Reset(srcs[i])
		if err := decodeSeq(&r, c, chunks[i]); err != nil {
			return err
		}
		if r.BitsRemaining() >= 8 {
			return ErrCorrupt
		}
	}
	return nil
}

// decode4 is the wide decode loop: four stack-value Readers advanced
// round-robin, decoding until any stream's buffered bits dip below one
// max-length code before refilling again. One refill buffers ≥ 56 bits
// and real quantization codes average ~5, so each refill round covers
// several symbols per stream — the refill itself, not the table probe, is
// what the two-symbols-per-refill layout spends its time on. The
// interleave keeps four independent chains in the pipeline — the
// single-stream decoder's refill→peek→consume latency chain is the
// bulk-decode bottleneck.
//
// Any fast-path miss (stream tail, zero entry, mid-code truncation) drops
// to the careful per-stream tail, which finishes through decodeSeq for
// exactly the reference decoder's error semantics.
func (c *Codec) decode4(srcs *[4][]byte, outs *[4][]uint16) error {
	var r0, r1, r2, r3 bitio.Reader
	r0.Reset(srcs[0])
	r1.Reset(srcs[1])
	r2.Reset(srcs[2])
	r3.Reset(srcs[3])
	o0, o1, o2, o3 := outs[0], outs[1], outs[2], outs[3]
	var p0, p1, p2, p3 int
	if len(c.table) > 0 {
		tab, tb := c.table, c.tableBits
		// Every entry's length (and every Peek width tb+sub) is at most
		// maxLen, so a stream holding maxLen buffered bits can always decode
		// one more symbol without rechecking mid-probe.
		ml := uint(c.maxLen)
	fast:
		for {
			// rem bounds the round by the fullest any chunk can get; chunk
			// lengths differ by at most one, so at most one symbol per
			// stream is left to the careful tail on output exhaustion.
			rem := len(o0) - p0
			if r := len(o1) - p1; r < rem {
				rem = r
			}
			if r := len(o2) - p2; r < rem {
				rem = r
			}
			if r := len(o3) - p3; r < rem {
				rem = r
			}
			if rem == 0 {
				break
			}
			r0.Refill()
			r1.Refill()
			r2.Refill()
			r3.Refill()
			if r0.Buffered() < ml || r1.Buffered() < ml || r2.Buffered() < ml || r3.Buffered() < ml {
				break
			}
			for rem > 0 &&
				r0.Buffered() >= ml && r1.Buffered() >= ml && r2.Buffered() >= ml && r3.Buffered() >= ml {
				rem--
				e0 := tab[r0.Peek(tb)]
				if e0&entryLink != 0 {
					sub := uint(e0 & entryLenMask)
					e0 = tab[e0>>entryShift+uint32(r0.Peek(tb+sub)&(1<<sub-1))]
				}
				n0 := uint(e0 & entryLenMask)
				if n0 == 0 {
					break fast
				}
				r0.ConsumeFast(n0)
				o0[p0] = uint16(e0 >> entryShift)
				p0++

				e1 := tab[r1.Peek(tb)]
				if e1&entryLink != 0 {
					sub := uint(e1 & entryLenMask)
					e1 = tab[e1>>entryShift+uint32(r1.Peek(tb+sub)&(1<<sub-1))]
				}
				n1 := uint(e1 & entryLenMask)
				if n1 == 0 {
					break fast
				}
				r1.ConsumeFast(n1)
				o1[p1] = uint16(e1 >> entryShift)
				p1++

				e2 := tab[r2.Peek(tb)]
				if e2&entryLink != 0 {
					sub := uint(e2 & entryLenMask)
					e2 = tab[e2>>entryShift+uint32(r2.Peek(tb+sub)&(1<<sub-1))]
				}
				n2 := uint(e2 & entryLenMask)
				if n2 == 0 {
					break fast
				}
				r2.ConsumeFast(n2)
				o2[p2] = uint16(e2 >> entryShift)
				p2++

				e3 := tab[r3.Peek(tb)]
				if e3&entryLink != 0 {
					sub := uint(e3 & entryLenMask)
					e3 = tab[e3>>entryShift+uint32(r3.Peek(tb+sub)&(1<<sub-1))]
				}
				n3 := uint(e3 & entryLenMask)
				if n3 == 0 {
					break fast
				}
				r3.ConsumeFast(n3)
				o3[p3] = uint16(e3 >> entryShift)
				p3++
			}
		}
	}
	rs := [4]*bitio.Reader{&r0, &r1, &r2, &r3}
	ps := [4]int{p0, p1, p2, p3}
	for k := 0; k < 4; k++ {
		r := rs[k]
		if err := decodeSeq(r, c, outs[k][ps[k]:]); err != nil {
			return err
		}
		// Leftover beyond the final byte's padding means the declared stream
		// boundary does not match the encoded symbols.
		if r.BitsRemaining() >= 8 {
			return ErrCorrupt
		}
	}
	return nil
}
