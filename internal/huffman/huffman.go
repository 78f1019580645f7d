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
	"math"
	"sync"
	"unsafe"

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

// Encode-table entry layout (uint32): code<<encShift | length. The length
// fills the low encShift bits, so a shift by the entry itself, counted mod
// 64 as SHLXQ and the Go loop's &63 count, is a shift by the length.
const (
	encShift   = 6
	encLenMask = 1<<encShift - 1
)

var (
	// ErrCorrupt is returned when a bitstream does not decode to a valid
	// symbol sequence under the codec's tables.
	ErrCorrupt = errors.New("huffman: corrupt bitstream")
	// ErrBadLengths is returned when a serialized length table does not
	// describe a valid (complete or empty) canonical code.
	ErrBadLengths = errors.New("huffman: invalid code length table")
)

// Codec holds the canonical code for one alphabet. The bulk coders build
// one per blob in a pooled shell and use it from one goroutine; only
// decoding a large blob adds to it once built (buildPairs).
//
// An encoder codec (buildCodec) fills lengths and enc; a decoder codec
// (readCodec) fills the lookup tables. Both lay out the canonical code the
// same way, and a pooled shell may carry the other side's stale fields.
type Codec struct {
	lengths []uint8  // per-symbol code length, 0 = unused symbol
	enc     []uint32 // per-symbol packed (code<<encShift | length), 0 = no code

	// The canonical code: firstCode[l] is the code value of the first code
	// of length l; index[l] is the offset into sorted where codes of length
	// l begin, and index[maxLen+1] == len(sorted); sorted lists symbols
	// ordered by (length, symbol). The code of sorted[i], of length l, is
	// therefore firstCode[l] + i − index[l].
	firstCode [MaxCodeLen + 2]uint32
	index     [MaxCodeLen + 2]int32
	sorted    []int32
	maxLen    uint8

	// Table decoder: primary table of 1<<tableBits entries followed by the
	// secondary tables for codes longer than tableBits.
	tableBits uint
	table     []uint32

	// pairs is the double-symbol table over the primary index (buildPairs),
	// built only for the blobs multiBlob.usePairs admits.
	pairs []uint64

	// Build-time scratch retained so pooled codec shells rebuild without
	// reallocating it: per-prefix secondary widths, and the coded runs of
	// the length table being read.
	subBits []uint8
	runs    []lengthRun
}

// lengthRun is one coded run of a serialized length table: the n symbols
// from start on share code length l > 0.
type lengthRun struct {
	start uint32
	n     uint16
	l     uint8
}

// codecPool recycles Codec shells — and, crucially, the enc/sorted/table
// array storage hanging off them — across the bulk encode/decode calls.
// The entropy stage builds one transient codec per blob; in steady state a
// rebuild into a pooled shell allocates nothing.
var codecPool = sync.Pool{New: func() any { return new(Codec) }}

// maxPooledCodecBytes bounds the table, pair and run storage a pooled codec
// shell may pin.
const maxPooledCodecBytes = 4 << 20

// putCodec returns a bulk-path codec shell to the reuse pool. The caller
// must hold no references to the codec or its tables afterwards.
func putCodec(c *Codec) {
	// An adversarial length table can inflate the secondary tables and the
	// run list; don't let one hostile blob pin megabytes in the pool.
	if 4*cap(c.table)+8*cap(c.pairs)+8*cap(c.runs) > maxPooledCodecBytes {
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
	// The heap works in place in the pooled scratch: a local slice whose
	// address heap.Interface takes would move to the heap on every build.
	h := &sc.heap
	*h = (*h)[:0]
	for i, f := range freqs {
		if f > 0 {
			nodes = append(nodes, hNode{weight: f, symbol: int32(i)})
		}
	}
	for i := range nodes {
		*h = append(*h, &nodes[i])
	}
	heap.Init(h)
	for h.Len() > 1 {
		a := heap.Pop(h).(*hNode)
		b := heap.Pop(h).(*hNode)
		d := a.depth
		if b.depth > d {
			d = b.depth
		}
		nodes = append(nodes, hNode{weight: a.weight + b.weight, symbol: -1, left: a, right: b, depth: d + 1})
		heap.Push(h, &nodes[len(nodes)-1])
	}
	setDepths((*h)[0], 0, lengths)
	sc.nodes, *h = nodes[:0], (*h)[:0]
	buildPool.Put(sc)
}

// setDepths writes the depth of every leaf under n into lengths.
func setDepths(n *hNode, depth uint8, lengths []uint8) {
	if n.symbol >= 0 {
		lengths[n.symbol] = depth
		return
	}
	setDepths(n.left, depth+1, lengths)
	setDepths(n.right, depth+1, lengths)
}

// canonical lays out the canonical code that has counts[l] codes of each
// length l: maxLen, firstCode, index, and sorted at its final length. The
// counts must satisfy the Kraft equality, except that a lone code may leave
// the code incomplete. It returns the number of coded symbols; 0 is the
// empty code, which gets an empty decode table.
func (c *Codec) canonical(counts *[MaxCodeLen + 2]uint32) (int, error) {
	c.maxLen = 0
	used := 0
	for l := 1; l <= MaxCodeLen; l++ {
		if counts[l] > 0 {
			c.maxLen = uint8(l)
			used += int(counts[l])
		}
	}
	if used == 0 {
		c.sorted, c.table, c.tableBits = c.sorted[:0], c.table[:0], 0
		return 0, nil
	}
	ml := uint(c.maxLen)
	var kraft uint64
	for l := uint(1); l <= ml; l++ {
		kraft += uint64(counts[l]) << (ml - l)
	}
	if used > 1 && kraft != 1<<ml {
		return 0, ErrBadLengths
	}
	code := uint32(0)
	var offset int32
	for l := uint(1); l <= ml; l++ {
		code <<= 1
		c.firstCode[l] = code
		c.index[l] = offset
		offset += int32(counts[l])
		code += counts[l]
	}
	c.index[ml+1] = offset
	c.sorted = grow(c.sorted, used)
	return used, nil
}

// init (re)builds c's encoder from a length table, taking ownership of
// lengths and reusing c's storage when its capacity suffices — pooled codec
// shells rebuild allocation-free in steady state.
func (c *Codec) init(lengths []uint8) error {
	c.lengths = lengths
	var counts [MaxCodeLen + 2]uint32
	for _, l := range lengths {
		// Most of an alphabet is unused: counting its zeros would chain
		// thousands of increments of one counter through memory.
		if l > 0 {
			counts[l]++
		}
	}
	if _, err := c.canonical(&counts); err != nil {
		return err
	}
	// Assign codes symbol-ascending within each length (canonical order):
	// one ascending pass over the symbols lands each in its length class in
	// exactly sorted-(length, symbol) order, no sort needed.
	c.enc = grow(c.enc, len(lengths))
	clear(c.enc)
	next, pos := c.firstCode, c.index
	for s, l := range lengths {
		if l == 0 {
			continue
		}
		c.enc[s] = next[l]<<encShift | uint32(l)
		next[l]++
		c.sorted[pos[l]] = int32(s)
		pos[l]++
	}
	return nil
}

// readRuns (re)builds c's decoder from a serialized length table
// (writeLengthTable's runs) in O(runs + coded symbols): it counts the codes
// per length from the runs, lays out the canonical code, places each run's
// symbols at their ranks and builds the lookup tables. A length over
// MaxCodeLen is reported once the whole table is read, so a table that also
// ends early reports the truncation, as it always has.
func (c *Codec) readRuns(r *bitio.Reader, alphabet int) error {
	n64, err := r.ReadBits(24)
	if err != nil {
		return err
	}
	n := int(n64)
	if n == 0 || n > alphabet {
		return ErrBadLengths
	}
	var counts [MaxCodeLen + 2]uint32
	tooLong := false
	runs := c.runs[:0]
	for i := 0; i < n; {
		// A run is (length:5, run:12), read straight from the buffered
		// bits; only the table's last bits take ReadBits' careful path.
		var v uint64
		if r.Refill(); r.Buffered() >= 5+12 {
			v = r.Peek(5 + 12)
			r.ConsumeFast(5 + 12)
		} else if v, err = r.ReadBits(5 + 12); err != nil {
			return err
		}
		l, run := uint8(v>>12), int(v&(1<<12-1))
		if run == 0 || run > n-i {
			return ErrBadLengths
		}
		if l > MaxCodeLen {
			tooLong = true
		} else if l > 0 {
			counts[l] += uint32(run)
			runs = append(runs, lengthRun{start: uint32(i), n: uint16(run), l: l})
		}
		i += run
	}
	c.runs = runs
	if tooLong {
		return ErrBadLengths
	}
	if used, err := c.canonical(&counts); used == 0 || err != nil {
		return err
	}
	// Runs ascend by symbol, so each length class fills in canonical order.
	pos := c.index
	for _, run := range runs {
		p := pos[run.l]
		for s := run.start; s < run.start+uint32(run.n); s++ {
			c.sorted[p] = int32(s)
			p++
		}
		pos[run.l] = p
	}
	c.buildDecodeTable()
	return nil
}

// buildDecodeTable constructs the primary + secondary lookup tables from
// the canonical layout, taking each code from its rank in sorted. Every bit
// pattern that starts a valid code maps to a filled entry. A complete code
// fills every entry, so only the one incomplete code the layout admits, a
// lone symbol, has its table cleared first: its patterns outside the code
// stay zero.
func (c *Codec) buildDecodeTable() {
	ml := uint(c.maxLen)
	tb := min(ml, primaryBits)
	c.tableBits = tb
	prim := uint32(1) << tb

	// Width of each prefix's secondary table: the longest code sharing that
	// primary index determines how many extra bits it must resolve. Codes
	// longer than tb follow every shorter one, so their prefixes are the
	// top ones, from the first (tb+1)-bit code's on: subBits[p-lo] belongs
	// to prefix p.
	var subBits []uint8
	lo := prim
	total := prim
	if ml > tb {
		lo = c.firstCode[tb+1] >> 1
		c.subBits = grow(c.subBits, int(prim-lo))
		subBits = c.subBits
		clear(subBits)
		for l := tb + 1; l <= ml; l++ {
			first := c.firstCode[l]
			for code := first; code < first+uint32(c.index[l+1]-c.index[l]); code++ {
				p := code>>(l-tb) - lo
				subBits[p] = max(subBits[p], uint8(l-tb))
			}
		}
		for _, b := range subBits {
			if b > 0 {
				total += uint32(1) << b
			}
		}
	}
	c.table = grow(c.table, int(total))
	if len(c.sorted) == 1 {
		clear(c.table)
	}

	// Link entries first, so long-code filling can locate its table.
	nextBase := prim
	for i, b := range subBits {
		if b > 0 {
			c.table[lo+uint32(i)] = nextBase<<entryShift | entryLink | uint32(b)
			nextBase += uint32(1) << b
		}
	}
	// Short codes: each fills the primary entries of every suffix of its
	// bits, and one length's codes are consecutive, so their spans are too.
	for l := uint(1); l <= tb; l++ {
		span := 1 << (tb - l)
		base := int(c.firstCode[l]) << (tb - l)
		for _, s := range c.sorted[c.index[l]:c.index[l+1]] {
			fillEntries(c.table[base:base+span], uint32(s)<<entryShift|uint32(l))
			base += span
		}
	}
	// Long codes: each fills its span of its prefix's secondary table.
	for l := tb + 1; l <= ml; l++ {
		code := c.firstCode[l]
		for _, s := range c.sorted[c.index[l]:c.index[l+1]] {
			link := c.table[code>>(l-tb)]
			b := uint(link & entryLenMask)
			span := 1 << (b - (l - tb))
			start := int(link>>entryShift) + int(code&(1<<(l-tb)-1))*span
			fillEntries(c.table[start:start+span], uint32(s)<<entryShift|uint32(l))
			code++
		}
	}
}

// fillEntries sets every entry of t to e, two entries a 64-bit store. A
// span is a power of two long and starts at a multiple of its length, and
// every secondary table starts at an even index, so a span of two or more
// is whole aligned entry pairs.
func fillEntries(t []uint32, e uint32) {
	if len(t) == 1 {
		t[0] = e
		return
	}
	pairs := unsafe.Slice((*uint64)(unsafe.Pointer(&t[0])), len(t)/2)
	v := uint64(e)<<32 | uint64(e)
	for i := range pairs {
		pairs[i] = v
	}
}

// buildPairs fills the double-symbol table over the primary index and
// returns it — zstd's HUF_decompress4X2 idea on this package's tables. An
// entry is s1 | s2<<16 | bits<<32 | (count−1)<<40: the one or two symbols
// whose codes the tableBits-bit pattern starts with, when the second code
// fits in the same pattern, and the bits they take. A link or zero primary
// entry gets a zero pair entry, which sends the decoder to the primary
// probe. The caller must have a nonempty decode table.
func (c *Codec) buildPairs() []uint64 {
	tb := c.tableBits
	mask := uint32(1)<<tb - 1
	c.pairs = grow(c.pairs, 1<<tb)
	for p := range c.pairs {
		e1 := c.table[p]
		n1 := uint(e1 & entryLenMask)
		if e1&entryLink != 0 || n1 == 0 {
			c.pairs[p] = 0
			continue
		}
		pe := uint64(e1>>entryShift) | uint64(n1)<<32
		// The bits after the first code lead the next primary index; a
		// direct entry no longer than those bits depends on nothing else.
		e2 := c.table[uint32(p)<<n1&mask]
		if n2 := uint(e2 & entryLenMask); e2&entryLink == 0 && n2 != 0 && n1+n2 <= tb {
			pe = uint64(e1>>entryShift) | uint64(e2>>entryShift)<<16 | uint64(n1+n2)<<32 | 1<<40
		}
		c.pairs[p] = pe
	}
	return c.pairs
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
	sym, n := probe(c.table, c.tableBits, r.Peek(64))
	// After Refill the accumulator holds min(56, BitsRemaining) bits and
	// every code fits in 24, so n exceeding Buffered means the stream ends
	// mid-code.
	if n == 0 || n > r.Buffered() {
		return 0, false
	}
	r.Consume(n)
	return int(sym), true
}

// probe looks up the code at the top of bits (the next stream bits,
// MSB-justified, at least maxLen of them real) in the primary table tab of
// index width tb and, for a link entry, in its secondary table. It returns
// the symbol and its code length; n == 0 marks a pattern that is no code's
// prefix.
func probe(tab []uint32, tb uint, bits uint64) (s uint16, n uint) {
	e := tab[bits>>((64-tb)&63)]
	if e&entryLink != 0 {
		sub := uint(e & entryLenMask)
		e = tab[e>>entryShift+uint32(bits>>((64-tb-sub)&63))&(1<<sub-1)]
	}
	return uint16(e >> entryShift), uint(e & entryLenMask)
}

// symbol constrains the element types the bulk coders move: bytes (the
// lossless codecs' literal and control streams) and uint16 (quantization
// codes).
type symbol interface{ ~uint8 | ~uint16 }

// buildCodec is the one place a code is built from data, for both bulk
// encoders: histogram the symbols (pooled scratch), then construct the code
// in a pooled shell (codecFromCounts). It also returns the size of the coded
// symbols in bits, Σ freq·len over the coded symbols, from which the caller
// sizes its output once. The caller returns the codec via putCodec.
func buildCodec[E symbol](symbols []E, alphabet int) (*Codec, uint64, error) {
	freqs := sched.GetUint64s(alphabet)[:alphabet]
	clear(freqs)
	for _, v := range symbols {
		if int(v) >= alphabet {
			sched.PutUint64s(freqs)
			return nil, 0, fmt.Errorf("huffman: symbol %d out of alphabet [0,%d)", int(v), alphabet)
		}
		freqs[v]++
	}
	return codecFromCounts(freqs, 1)
}

// Bounds is what an encoder knows of its symbols without counting them:
// each is 0 or in [Lo, Hi], and Zeros of them are 0.
type Bounds struct {
	Lo, Hi uint16
	Zeros  int
}

// buildSampledCodec is buildCodec from a count of every step-th symbol: 0
// is given Zeros/step (rounded up) and every symbol in [b.Lo, b.Hi] at least
// 1, so every symbol b admits gets a code, and the bits are the count's
// estimate of the coded size scaled by step, plus 1/16. Symbols outside b
// get no code; the caller must not pass one.
func buildSampledCodec(symbols []uint16, alphabet, step int, b Bounds) (*Codec, uint64, error) {
	if b.Lo <= b.Hi && int(b.Hi) >= alphabet {
		return nil, 0, fmt.Errorf("huffman: symbol %d out of alphabet [0,%d)", b.Hi, alphabet)
	}
	freqs := sched.GetUint64s(alphabet)[:alphabet]
	clear(freqs)
	for i := 0; i < len(symbols); i += step {
		v := symbols[i]
		if int(v) >= alphabet {
			sched.PutUint64s(freqs)
			return nil, 0, fmt.Errorf("huffman: symbol %d out of alphabet [0,%d)", v, alphabet)
		}
		freqs[v]++
	}
	freqs[0] = uint64((b.Zeros + step - 1) / step)
	for v := int(b.Lo); v <= int(b.Hi); v++ {
		freqs[v] = max(freqs[v], 1)
	}
	c, bits, err := codecFromCounts(freqs, uint64(step))
	return c, bits + bits/16, err
}

// codecFromCounts builds the code for the counts freqs, a pooled buffer it
// takes back, in a pooled shell, and returns it with scale·Σ freq·len.
func codecFromCounts(freqs []uint64, scale uint64) (*Codec, uint64, error) {
	defer sched.PutUint64s(freqs)
	c := codecPool.Get().(*Codec)
	if err := c.initFromFreqs(freqs); err != nil {
		putCodec(c)
		return nil, 0, err
	}
	var bits uint64
	for _, s := range c.sorted {
		bits += freqs[s] * uint64(c.lengths[s])
	}
	return c, scale * bits, nil
}

// readCodec is buildCodec's decode-side twin, the one place a code is read
// from a serialized length table, again into a pooled shell the caller
// returns via putCodec.
func readCodec(r *bitio.Reader, alphabet int) (*Codec, error) {
	c := codecPool.Get().(*Codec)
	if err := c.readRuns(r, alphabet); err != nil {
		putCodec(c)
		return nil, err
	}
	return c, nil
}

// encodeSeq is the single-stream bulk encoder: the length table, a 32-bit
// symbol count, then the packed codes, in a pooled output buffer. head is
// the whole bytes before the first code bit: the table and the count.
func encodeSeq[E symbol](symbols []E, alphabet int) (out []byte, head int, err error) {
	c, bits, err := buildCodec(symbols, alphabet)
	if err != nil {
		return nil, 0, err
	}
	defer putCodec(c)
	// The header's unfinished byte and the codes, rounded up, plus the
	// kernel's store slack.
	codeBytes := int((bits+7+7)/8) + 8
	w := bitio.NewWriterBuffer(sched.GetBytes(len(c.lengths)/4 + 16 + codeBytes))
	hdr := writeLengthTable(w, c.lengths) + 32
	w.WriteBits(uint64(len(symbols)), 32)
	out = w.Bytes()
	// The codes continue the header's unfinished byte: hand its bits to the
	// kernel.
	var pending uint64
	if hdr%8 != 0 {
		pending = uint64(out[len(out)-1] >> (8 - hdr%8))
		out = out[:len(out)-1]
	}
	if cap(out)-len(out) < codeBytes {
		grown := append(sched.GetBytes(len(out)+codeBytes), out...)
		sched.PutBytes(out)
		out = grown
	}
	if u, ok := any(symbols).([]uint16); ok {
		return appendCodesU16(out, c.enc, u, pending, hdr%8), int(hdr / 8), nil
	}
	return appendCodes(out, c.enc, symbols, pending, hdr%8), int(hdr / 8), nil
}

// appendCodes is the one loop that writes codes: it appends the codes of
// syms (packed code<<encShift | length in enc) MSB-first to out, behind the nacc < 8
// pending bits that are the low bits of acc, and pads the last byte with
// zeros. The accumulator keeps its unwritten bits at the bottom, and bits
// above them are never cleared: a store shifts them out. Each code pair — at
// most 7 + 2·MaxCodeLen = 55 bits with the pending ones — goes out in one
// unconditional 8-byte big-endian store (bitio.StoreBits), and the position
// advances by the whole bytes filled. Spare capacity for the coded bytes
// plus 8 saves a copy: with less, out moves to a larger pooled buffer
// (growCodes). Shift counts are masked to 63 so the compiler emits bare
// shifts; none reaches 64.
func appendCodes[E symbol](out []byte, enc []uint32, syms []E, acc uint64, nacc uint) []byte {
	pos := len(out)
	buf := out[:cap(out)]
	j := 0
	for ; j+1 < len(syms); j += 2 {
		if pos > len(buf)-8 {
			buf = growCodes(buf[:pos])
			buf = buf[:cap(buf)]
		}
		e1, e2 := enc[syms[j]], enc[syms[j+1]]
		n1, n2 := uint(e1&encLenMask), uint(e2&encLenMask)
		acc = acc<<((n1+n2)&63) | uint64(e1>>encShift)<<(n2&63) | uint64(e2>>encShift)
		nacc += n1 + n2
		pos, nacc = bitio.StoreBits(buf, pos, acc, nacc)
	}
	if j < len(syms) {
		e := enc[syms[j]]
		n := uint(e & encLenMask)
		acc = acc<<(n&63) | uint64(e>>encShift)
		nacc += n
	}
	// At most 7 + MaxCodeLen bits are left: one more store, keeping the
	// bytes they reach (none when nacc is 0 and the store is junk).
	if pos > len(buf)-8 {
		buf = growCodes(buf[:pos])
		buf = buf[:cap(buf)]
	}
	bitio.StoreBits(buf, pos, acc, nacc)
	return buf[:pos+int(nacc+7)/8]
}

// growCodes copies out into a pooled buffer of twice its capacity and more:
// the encoders size their output from a count, and a sampled count can fall
// short. The old buffer stays the caller's.
func growCodes(out []byte) []byte {
	return append(sched.GetBytes(2*cap(out)+64), out...)
}

// decodeSeq is the tail every stream ends in, whatever its blob's shape: it
// fills out from r's position through the table decoder, falling back to the
// reference decoder at the stream tail or on corruption, then refuses a
// stream with 8 or more bits left. A valid stream ends in under a byte of
// padding, so a whole spare byte means the declared symbol count or stream
// boundary does not match the coded symbols.
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
	if r.BitsRemaining() >= 8 {
		return ErrCorrupt
	}
	return nil
}

// decodeAll reverses encodeSeq into the buffer get(n) returns; put takes it
// back when the stream turns out corrupt. It also returns the code's span
// (Codec.span).
func decodeAll[E symbol](data []byte, alphabet int, get func(int) []E, put func([]E)) ([]E, uint16, uint16, error) {
	r := bitio.NewReader(data)
	c, err := readCodec(r, alphabet)
	if err != nil {
		return nil, 0, 0, err
	}
	defer putCodec(c)
	n64, err := r.ReadBits(32)
	if err != nil {
		return nil, 0, 0, err
	}
	// Every symbol costs at least one bit, so a count exceeding the
	// remaining stream is corruption — reject before allocating.
	if n64 > uint64(r.BitsRemaining()) {
		return nil, 0, 0, ErrCorrupt
	}
	out := get(int(n64))[:n64]
	if err := decodeSeq(r, c, out); err != nil {
		put(out)
		return nil, 0, 0, err
	}
	lo, hi := c.span()
	return out, lo, hi, nil
}

// span returns the least and greatest symbol other than 0 that a decoder
// codec's code holds, read off its length table's coded runs: every symbol
// it decodes is 0 or in [lo, hi], and lo > hi when it holds no other symbol.
func (c *Codec) span() (lo, hi uint16) {
	for _, r := range c.runs { // ascending by symbol
		if r.start+uint32(r.n) > 1 {
			last := c.runs[len(c.runs)-1]
			return uint16(max(r.start, 1)), uint16(last.start + uint32(last.n) - 1)
		}
	}
	return math.MaxUint16, 0
}

// EncodeAllU8 encodes bytes (alphabet 256) as a single-stream blob — the
// same bytes a uint16-widened copy of symbols would produce, without the
// copy. The returned buffer comes from the sched byte pool.
func EncodeAllU8(symbols []byte) ([]byte, error) {
	out, _, err := encodeSeq(symbols, 256)
	return out, err
}

// DecodeAllU8 reverses EncodeAllU8 into a buffer drawn from the sched byte
// pool (recycle via sched.PutBytes).
func DecodeAllU8(data []byte) ([]byte, error) {
	out, _, _, err := decodeAll(data, 256, sched.GetBytes, sched.PutBytes)
	return out, err
}

// writeLengthTable emits the code-length table using a simple run-length
// scheme: (length:5, runLen:12) pairs, which is compact because quantization
// code tables are dominated by long zero runs. It returns the bits written.
func writeLengthTable(w *bitio.Writer, lengths []uint8) uint {
	w.WriteBits(uint64(len(lengths)), 24)
	bits := uint(24)
	i := 0
	for i < len(lengths) {
		l := lengths[i]
		j := i + 1
		for j < len(lengths) && lengths[j] == l && j-i < 1<<12-1 {
			j++
		}
		w.WriteBits(uint64(l), 5)
		w.WriteBits(uint64(j-i), 12)
		bits += 5 + 12
		i = j
	}
	return bits
}
