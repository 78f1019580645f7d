// Package huffman implements a canonical, length-limited Huffman codec over
// integer alphabets. It is the entropy stage shared by the SZ2 and SZ3 lossy
// compressors (uint16 quantization codes, through their common back end in
// ebcl) and the zstd-like / xz-like lossless codecs (byte literal and control
// streams).
//
// Code tables are serialized as the list of per-symbol code lengths, so the
// decoder can rebuild the exact canonical code without transmitting the
// codes themselves.
//
// Decoding is table-driven in the zlib/zstd style: a primary lookup table
// indexed by the next primaryBits bits resolves short codes in one probe,
// with per-prefix secondary tables for longer codes. The original
// bit-by-bit canonical decoder is retained as Decode — it is the reference
// implementation the table decoder is differentially tested against, and
// the fallback that reproduces exact error behavior on truncated or
// corrupt streams. Both decoders read the same serialized format; only the
// number of bits moved per memory access differs.
package huffman

import (
	"container/heap"
	"errors"
	"fmt"
	"sync"

	"repro/internal/bitio"
	"repro/internal/sched"
)

// MaxCodeLen is the maximum code length a built code uses. Length
// limiting keeps the decoder tables small and bounds worst-case expansion.
const MaxCodeLen = 24

// primaryBits is the index width of the first-level decode table: one
// 2^11-entry probe resolves every code up to 11 bits — which covers all hot
// symbols of the skewed quantization-code and literal distributions — and
// longer codes chain through a compact per-prefix secondary table.
const primaryBits = 11

// Decode-table entry layout (uint32):
//
//	bits 0..4  code length to consume (direct) or secondary width (link)
//	bit  5     link flag: entry points at a secondary table
//	bits 6..   symbol (direct) or secondary-table base offset (link)
//
// A zero entry marks a bit pattern that is no code's prefix (possible only
// for incomplete codes, e.g. the single-symbol case) and routes the caller
// to the reference decoder for exact error reporting.
const (
	entryLenMask = 0x1F
	entryLink    = 0x20
	entryShift   = 6
)

var (
	// ErrCorrupt is returned when a bitstream does not decode to a valid
	// symbol sequence under the codec's tables.
	ErrCorrupt = errors.New("huffman: corrupt bitstream")
	// ErrBadLengths is returned when a serialized length table does not
	// describe a valid (complete or empty) canonical code.
	ErrBadLengths = errors.New("huffman: invalid code length table")
)

// Codec holds the canonical code for one alphabet. A Codec is immutable and
// safe for concurrent use after construction.
type Codec struct {
	lengths []uint8  // per-symbol code length, 0 = unused symbol
	enc     []uint32 // per-symbol packed (code<<5 | length), 0 = no code

	// Reference-decoder acceleration: firstCode[l] is the canonical code
	// value of the first code of length l; index[l] is the offset into
	// sorted where codes of length l begin; sorted lists symbols ordered by
	// (length, symbol).
	firstCode [MaxCodeLen + 2]uint32
	index     [MaxCodeLen + 2]int32
	sorted    []int32
	maxLen    uint8

	// Table decoder: primary table of 1<<tableBits entries followed by the
	// secondary tables for codes longer than tableBits.
	tableBits uint
	table     []uint32

	// subBits is build-time scratch (per-prefix secondary widths) retained
	// so pooled codec shells rebuild without reallocating it.
	subBits []uint8
}

// codecPool recycles Codec shells — and, crucially, the enc/sorted/table
// array storage hanging off them — across the bulk encode/decode calls.
// The entropy stage builds one transient codec per blob; in steady state a
// rebuild into a pooled shell allocates nothing.
var codecPool = sync.Pool{New: func() any { return new(Codec) }}

// putCodec returns a bulk-path codec shell to the reuse pool. The caller
// must hold no references to the codec or its tables afterwards.
func putCodec(c *Codec) {
	// An adversarial length table can inflate the secondary tables; don't
	// let one hostile blob pin megabytes in the pool.
	if cap(c.table) > 1<<20 {
		return
	}
	codecPool.Put(c)
}

// grow returns a slice of length n backed by s's array when the capacity
// suffices and freshly allocated otherwise; contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

type hNode struct {
	weight      uint64
	symbol      int32 // -1 for internal
	left, right *hNode
	depth       int
}

type hHeap []*hNode

func (h hHeap) Len() int { return len(h) }
func (h hHeap) Less(i, j int) bool {
	if h[i].weight != h[j].weight {
		return h[i].weight < h[j].weight
	}
	// Tie-break on depth for more balanced trees (shorter max length).
	return h[i].depth < h[j].depth
}
func (h hHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *hHeap) Push(x interface{}) { *h = append(*h, x.(*hNode)) }
func (h *hHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// initFromFreqs (re)builds c as the canonical code for an alphabet of
// len(frequencies) symbols with the given occurrence counts, reusing c's
// table storage. Symbols with zero frequency get no code. Codes longer than
// MaxCodeLen are flattened by iteratively halving large frequencies (the
// standard length-limiting heuristic), which preserves decodability at a tiny
// ratio cost.
func (c *Codec) initFromFreqs(frequencies []uint64) error {
	if len(frequencies) == 0 {
		return errors.New("huffman: empty alphabet")
	}
	freqs := sched.GetUint64s(len(frequencies))
	freqs = append(freqs, frequencies...)
	defer sched.PutUint64s(freqs)

	lengths := grow(c.lengths, len(freqs))
	for attempt := 0; ; attempt++ {
		buildLengths(freqs, lengths)
		maxLen := uint8(0)
		for _, l := range lengths {
			if l > maxLen {
				maxLen = l
			}
		}
		if maxLen <= MaxCodeLen {
			return c.init(lengths)
		}
		if attempt > 64 {
			return errors.New("huffman: failed to limit code lengths")
		}
		// Flatten the distribution and retry.
		for i, f := range freqs {
			if f > 0 {
				freqs[i] = f/2 + 1
			}
		}
	}
}

// buildScratch recycles the Huffman tree-construction storage: the classic
// algorithm needs 2·used−1 nodes, previously one heap allocation each —
// the dominant allocation count of the whole compress path.
type buildScratch struct {
	nodes []hNode
	heap  hHeap
}

var buildPool = sync.Pool{New: func() any { return new(buildScratch) }}

// buildLengths runs the classic two-queue Huffman construction, writing
// per-symbol code lengths into lengths (len(lengths) == len(freqs)).
func buildLengths(freqs []uint64, lengths []uint8) {
	clear(lengths)
	used := 0
	last := int32(-1)
	for i, f := range freqs {
		if f > 0 {
			used++
			last = int32(i)
		}
	}
	switch used {
	case 0:
		return // empty code: encoder never emits symbols
	case 1:
		lengths[last] = 1 // single symbol still needs one bit
		return
	}
	sc := buildPool.Get().(*buildScratch)
	// The arena is sized up front so appends never reallocate: heap entries
	// are pointers into it and must stay stable.
	if cap(sc.nodes) < 2*used {
		sc.nodes = make([]hNode, 0, 2*used)
	}
	nodes := sc.nodes[:0]
	h := sc.heap[:0]
	for i, f := range freqs {
		if f > 0 {
			nodes = append(nodes, hNode{weight: f, symbol: int32(i)})
		}
	}
	for i := range nodes {
		h = append(h, &nodes[i])
	}
	heap.Init(&h)
	for h.Len() > 1 {
		a := heap.Pop(&h).(*hNode)
		b := heap.Pop(&h).(*hNode)
		d := a.depth
		if b.depth > d {
			d = b.depth
		}
		nodes = append(nodes, hNode{weight: a.weight + b.weight, symbol: -1, left: a, right: b, depth: d + 1})
		heap.Push(&h, &nodes[len(nodes)-1])
	}
	root := h[0]
	var walk func(n *hNode, depth uint8)
	walk = func(n *hNode, depth uint8) {
		if n.symbol >= 0 {
			lengths[n.symbol] = depth
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(root, 0)
	sc.nodes, sc.heap = nodes[:0], h[:0]
	buildPool.Put(sc)
}

// init (re)builds c from a length table, taking ownership of lengths and
// reusing c's table storage when its capacity suffices — pooled codec
// shells rebuild allocation-free in steady state.
func (c *Codec) init(lengths []uint8) error {
	c.lengths, c.maxLen = lengths, 0
	// Count codes per length; validate Kraft sum.
	var counts [MaxCodeLen + 2]uint32
	used := 0
	for _, l := range lengths {
		if l > MaxCodeLen {
			return ErrBadLengths
		}
		if l > 0 {
			counts[l]++
			used++
			if l > c.maxLen {
				c.maxLen = l
			}
		}
	}
	if used == 0 {
		c.enc = c.enc[:0]
		c.sorted = c.sorted[:0]
		c.table = c.table[:0]
		c.tableBits = 0
		return nil
	}
	var kraft uint64
	for l := uint8(1); l <= c.maxLen; l++ {
		kraft += uint64(counts[l]) << (uint(c.maxLen) - uint(l))
	}
	if used > 1 && kraft != 1<<uint(c.maxLen) {
		return ErrBadLengths
	}
	// Canonical first codes per length.
	code := uint32(0)
	var next [MaxCodeLen + 2]uint32
	var offset int32
	for l := uint8(1); l <= c.maxLen; l++ {
		code <<= 1
		c.firstCode[l] = code
		next[l] = code
		c.index[l] = offset
		offset += int32(counts[l])
		code += counts[l]
	}
	// Assign codes symbol-ascending within each length (canonical order):
	// one ascending pass over the symbols lands each in its length class in
	// exactly sorted-(length, symbol) order, no sort needed.
	c.enc = grow(c.enc, len(lengths))
	clear(c.enc)
	c.sorted = grow(c.sorted, used)
	var pos [MaxCodeLen + 2]int32
	copy(pos[:], c.index[:])
	for s, l := range lengths {
		if l == 0 {
			continue
		}
		c.enc[s] = next[l]<<5 | uint32(l)
		next[l]++
		c.sorted[pos[l]] = int32(s)
		pos[l]++
	}
	c.buildDecodeTable()
	return nil
}

// code returns the canonical code bits of symbol s (which must have one).
func (c *Codec) code(s int32) uint32 { return c.enc[s] >> 5 }

// buildDecodeTable constructs the primary + secondary lookup tables from
// the already-assigned canonical codes. Every bit pattern that starts a
// valid code maps to a filled entry; patterns outside the code (possible
// only for incomplete codes) stay zero.
func (c *Codec) buildDecodeTable() {
	tb := uint(c.maxLen)
	if tb > primaryBits {
		tb = primaryBits
	}
	c.tableBits = tb
	prim := uint32(1) << tb

	// Width of each prefix's secondary table: the longest code sharing that
	// primary index determines how many extra bits it must resolve.
	var subBits []uint8
	total := prim
	if uint(c.maxLen) > tb {
		c.subBits = grow(c.subBits, int(prim))
		subBits = c.subBits
		clear(subBits)
		for _, s := range c.sorted {
			l := uint(c.lengths[s])
			if l <= tb {
				continue
			}
			prefix := c.code(s) >> (l - tb)
			if x := uint8(l - tb); x > subBits[prefix] {
				subBits[prefix] = x
			}
		}
		for _, b := range subBits {
			if b > 0 {
				total += uint32(1) << b
			}
		}
	}
	c.table = grow(c.table, int(total))
	clear(c.table)

	// Link entries first, so long-code filling can locate its table.
	nextBase := prim
	for prefix, b := range subBits {
		if b > 0 {
			c.table[prefix] = nextBase<<entryShift | entryLink | uint32(b)
			nextBase += uint32(1) << b
		}
	}
	for _, s := range c.sorted {
		l := uint(c.lengths[s])
		entry := uint32(s)<<entryShift | uint32(l)
		if l <= tb {
			// Short code: replicate over every suffix of the primary index.
			base := c.code(s) << (tb - l)
			for j := uint32(0); j < 1<<(tb-l); j++ {
				c.table[base+j] = entry
			}
			continue
		}
		code := c.code(s)
		link := c.table[code>>(l-tb)]
		base := link >> entryShift
		b := uint(link & entryLenMask)
		low := code & (1<<(l-tb) - 1)
		start := base + low<<(b-(l-tb))
		for j := uint32(0); j < 1<<(b-(l-tb)); j++ {
			c.table[start+j] = entry
		}
	}
}

// Decode reads one symbol from r bit-by-bit over the canonical first-code
// ladder. It is the reference decoder: decodeFast and the bulk decoders are
// differentially tested against it, and delegate to it on truncated or
// invalid streams so error semantics are identical across paths.
func (c *Codec) Decode(r *bitio.Reader) (int, error) {
	var code uint32
	for l := uint8(1); l <= c.maxLen; l++ {
		bit, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | uint32(bit)
		// Codes of length l occupy [firstCode[l], firstCode[l]+count).
		first := c.firstCode[l]
		idx := c.index[l]
		var count uint32
		if l < c.maxLen {
			count = (c.firstCode[l+1] >> 1) - first
		} else {
			count = uint32(len(c.sorted)) - uint32(idx)
		}
		if code >= first && code-first < count {
			return int(c.sorted[idx+int32(code-first)]), nil
		}
	}
	return 0, ErrCorrupt
}

// decodeFast resolves one symbol through the lookup tables. ok reports
// whether the fast path applied; on false nothing was consumed and the
// caller must take the reference path (stream truncated mid-code, or the
// peeked pattern is no code's prefix).
func (c *Codec) decodeFast(r *bitio.Reader) (s int, ok bool) {
	if len(c.table) == 0 {
		return 0, false // empty code: no symbol can decode
	}
	r.Refill()
	e := c.table[r.Peek(c.tableBits)]
	if e&entryLink != 0 {
		sub := uint(e & entryLenMask)
		e = c.table[e>>entryShift+uint32(r.Peek(c.tableBits+sub)&(1<<sub-1))]
	}
	n := uint(e & entryLenMask)
	// After Refill the accumulator holds min(56, BitsRemaining) bits and
	// every code fits in 24, so n exceeding Buffered means the stream ends
	// mid-code.
	if n == 0 || n > r.Buffered() {
		return 0, false
	}
	r.Consume(n)
	return int(e >> entryShift), true
}

// symbol constrains the element types the bulk coders move: bytes (the
// lossless codecs' literal and control streams) and uint16 (quantization
// codes).
type symbol interface{ ~uint8 | ~uint16 }

// buildCodec is the one place a code is built from data, for both bulk
// encoders: histogram the symbols (pooled scratch), then construct the code
// in a pooled shell. The caller returns the codec via putCodec.
func buildCodec[E symbol](symbols []E, alphabet int) (*Codec, error) {
	freqs := sched.GetUint64s(alphabet)[:alphabet]
	defer sched.PutUint64s(freqs)
	clear(freqs)
	for _, v := range symbols {
		if int(v) >= alphabet {
			return nil, fmt.Errorf("huffman: symbol %d out of alphabet [0,%d)", int(v), alphabet)
		}
		freqs[v]++
	}
	c := codecPool.Get().(*Codec)
	if err := c.initFromFreqs(freqs); err != nil {
		putCodec(c)
		return nil, err
	}
	return c, nil
}

// readCodec is buildCodec's decode-side twin, the one place a code is read
// from a serialized length table, again into a pooled shell the caller
// returns via putCodec.
func readCodec(r *bitio.Reader, alphabet int) (*Codec, error) {
	c := codecPool.Get().(*Codec)
	lengths, err := readLengthTable(r, alphabet, c.lengths)
	if err == nil {
		err = c.init(lengths)
	}
	if err != nil {
		putCodec(c)
		return nil, err
	}
	return c, nil
}

// encodeSeq is the single-stream bulk encoder: the length table, a 32-bit
// symbol count, then the packed codes, in a pooled output buffer.
func encodeSeq[E symbol](symbols []E, alphabet int) ([]byte, error) {
	c, err := buildCodec(symbols, alphabet)
	if err != nil {
		return nil, err
	}
	w := bitio.NewWriterBuffer(sched.GetBytes(len(symbols)/2 + 64))
	writeLengthTable(w, c.lengths)
	w.WriteBits(uint64(len(symbols)), 32)
	enc := c.enc
	for _, v := range symbols {
		e := enc[v]
		w.WriteBits(uint64(e>>5), uint(e&entryLenMask))
	}
	putCodec(c)
	return w.Bytes(), nil
}

// decodeSeq fills out through the table decoder, falling back to the
// reference decoder at the stream tail or on corruption.
func decodeSeq[E symbol](r *bitio.Reader, c *Codec, out []E) error {
	for i := range out {
		s, ok := c.decodeFast(r)
		if !ok {
			var err error
			if s, err = c.Decode(r); err != nil {
				return err
			}
		}
		out[i] = E(s)
	}
	return nil
}

// decodeAll reverses encodeSeq into the buffer get(n) returns; put takes it
// back when the stream turns out corrupt.
func decodeAll[E symbol](data []byte, alphabet int, get func(int) []E, put func([]E)) ([]E, error) {
	r := bitio.NewReader(data)
	c, err := readCodec(r, alphabet)
	if err != nil {
		return nil, err
	}
	defer putCodec(c)
	n64, err := r.ReadBits(32)
	if err != nil {
		return nil, err
	}
	// Every symbol costs at least one bit, so a count exceeding the
	// remaining stream is corruption — reject before allocating.
	if n64 > uint64(r.BitsRemaining()) {
		return nil, ErrCorrupt
	}
	out := get(int(n64))[:n64]
	if err := decodeSeq(r, c, out); err != nil {
		put(out)
		return nil, err
	}
	return out, nil
}

// DecodeAllU16 decodes a single-stream blob — the length table (24-bit count
// + run-length coded lengths), a 32-bit symbol count, the bit-packed codes —
// into a buffer drawn from the sched uint16 pool; the caller owns it and
// should recycle it via sched.PutUint16s. The alphabet must fit uint16
// symbols (≤ 65536).
func DecodeAllU16(data []byte, alphabet int) ([]uint16, error) {
	if alphabet > 1<<16 {
		return nil, fmt.Errorf("huffman: alphabet %d exceeds uint16 symbols", alphabet)
	}
	return decodeAll(data, alphabet, sched.GetUint16s, sched.PutUint16s)
}

// EncodeAllU8 encodes bytes (alphabet 256) as a single-stream blob — the
// same bytes a uint16-widened copy of symbols would produce, without the
// copy. The returned buffer comes from the sched byte pool.
func EncodeAllU8(symbols []byte) ([]byte, error) { return encodeSeq(symbols, 256) }

// DecodeAllU8 reverses EncodeAllU8 into a buffer drawn from the sched byte
// pool (recycle via sched.PutBytes).
func DecodeAllU8(data []byte) ([]byte, error) {
	return decodeAll(data, 256, sched.GetBytes, sched.PutBytes)
}

// writeLengthTable emits the code-length table using a simple run-length
// scheme: (length:5, runLen:12) pairs, which is compact because quantization
// code tables are dominated by long zero runs.
func writeLengthTable(w *bitio.Writer, lengths []uint8) {
	w.WriteBits(uint64(len(lengths)), 24)
	i := 0
	for i < len(lengths) {
		l := lengths[i]
		j := i + 1
		for j < len(lengths) && lengths[j] == l && j-i < 1<<12-1 {
			j++
		}
		w.WriteBits(uint64(l), 5)
		w.WriteBits(uint64(j-i), 12)
		i = j
	}
}

// readLengthTable parses a serialized length table, writing it into buf's
// storage when the capacity suffices (the pooled-codec rebuild path).
func readLengthTable(r *bitio.Reader, maxAlphabet int, buf []uint8) ([]uint8, error) {
	n64, err := r.ReadBits(24)
	if err != nil {
		return nil, err
	}
	n := int(n64)
	if n == 0 || n > maxAlphabet {
		return nil, ErrBadLengths
	}
	lengths := grow(buf, n)
	clear(lengths)
	i := 0
	for i < n {
		l, err := r.ReadBits(5)
		if err != nil {
			return nil, err
		}
		run, err := r.ReadBits(12)
		if err != nil {
			return nil, err
		}
		if run == 0 || i+int(run) > n {
			return nil, ErrBadLengths
		}
		for k := 0; k < int(run); k++ {
			lengths[i+k] = uint8(l)
		}
		i += int(run)
	}
	return lengths, nil
}
