package ebcl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/huffman"
	"repro/internal/lossless"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// Stream framing: the header and degenerate layouts all four EBLCs share,
// length-prefixed sections, and — below them — the SZ-family back end with
// its trailing lossless stage (SZ2/SZ3 run Zstd after Huffman; we use the
// zstd-like codec).

// Layout identifiers for the byte following the common header.
const (
	LayoutEmpty    = 0 // zero-length input
	LayoutConstant = 1 // zero value range: single repeated value
	LayoutFull     = 2 // full compression pipeline
	LayoutKindRuns = 3 // LayoutFull with (kind, uvarint run) pairs for kinds: Format.KindRuns
)

// AppendHeader writes the common header: magic, element count, layout byte.
func AppendHeader(dst []byte, magic uint32, n int, layout byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, magic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	return append(dst, layout)
}

// MaxElements caps the element count a stream header may declare (256 Mi
// elements = 1 GiB of float32), rejecting hostile headers before any large
// allocation. The largest model in the paper is 60 M parameters.
const MaxElements = 1 << 28

// ParseHeader validates the magic and returns the element count, layout
// byte, and the remaining stream.
func ParseHeader(stream []byte, wantMagic uint32) (n int, layout byte, rest []byte, err error) {
	if len(stream) < 9 {
		return 0, 0, nil, ErrCorrupt
	}
	if binary.LittleEndian.Uint32(stream) != wantMagic {
		return 0, 0, nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	// Compared before the conversion: on a 32-bit int a count ≥ 2³¹ would
	// turn negative and pass.
	count := binary.LittleEndian.Uint32(stream[4:])
	if count > MaxElements {
		return 0, 0, nil, fmt.Errorf("%w: element count %d exceeds limit", ErrCorrupt, count)
	}
	return int(count), stream[8], stream[9:], nil
}

// AppendDegenerate writes the complete stream for the two inputs no codec
// pipeline runs on: empty data, and constant data (every element equal to
// data[0] — each codec decides that its own way). ok is false, with dst
// untouched, for anything else.
func AppendDegenerate(dst []byte, magic uint32, data []float32, constant bool) (out []byte, ok bool) {
	switch {
	case len(data) == 0:
		return AppendHeader(dst, magic, 0, LayoutEmpty), true
	case constant:
		return AppendConstant(dst, magic, len(data), data[0]), true
	}
	return dst, false
}

// AppendConstant writes the complete 13-byte LayoutConstant stream that
// decodes to n copies of v.
func AppendConstant(dst []byte, magic uint32, n int, v float32) []byte {
	dst = AppendHeader(dst, magic, n, LayoutConstant)
	return binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
}

// ConstantOf returns the value of a LayoutConstant stream under magic that
// declares n elements: DecodeLayout would fill n copies of v. ok is false for
// every other stream, valid or not.
func ConstantOf(stream []byte, magic uint32, n int) (v float32, ok bool) {
	m, layout, rest, err := ParseHeader(stream, magic)
	if err != nil || layout != LayoutConstant || m != n || len(rest) < 4 {
		return 0, false
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(rest)), true
}

// BoundOf is ResolvedBound for a stream under magic whose full layouts write
// the f64 absolute bound first, as Finish and szx do.
func BoundOf(stream []byte, magic uint32) (eb float64, ok bool) {
	_, layout, rest, err := ParseHeader(stream, magic)
	if err != nil || layout < LayoutFull || len(rest) < 8 {
		return 0, false
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(rest)), true
}

// DecodeLayout parses the common header and finishes the layouts
// AppendDegenerate wrote: for those out is the complete reconstruction in
// dst's storage and full is false. For LayoutFull, or the codec's own
// fullLayout, it returns the element count and the bytes after the header,
// for the codec's own pipeline. full is false on error.
func DecodeLayout(dst []float32, stream []byte, magic uint32, fullLayout byte) (out []float32, n int, rest []byte, full bool, err error) {
	n, layout, rest, err := ParseHeader(stream, magic)
	if err != nil {
		return nil, 0, nil, false, err
	}
	switch layout {
	case LayoutEmpty:
		if n != 0 {
			return nil, 0, nil, false, ErrCorrupt
		}
		return GrowFloats(dst, 0), 0, nil, false, nil
	case LayoutConstant:
		if len(rest) < 4 {
			return nil, 0, nil, false, ErrCorrupt
		}
		v := math.Float32frombits(binary.LittleEndian.Uint32(rest))
		out = GrowFloats(dst, n)
		for i := range out {
			out[i] = v
		}
		return out, n, nil, false, nil
	case LayoutFull, fullLayout:
		return nil, n, rest, true, nil
	}
	return nil, 0, nil, false, ErrCorrupt
}

// AppendSection appends a uvarint-length-prefixed byte section.
func AppendSection(dst, section []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(section)))
	return append(dst, section...)
}

// SectionLenBytes is the width of the fixed-size length prefix written by
// ReserveSectionLen/PatchSectionLen: five varint groups cover lengths up to
// 2^35-1, beyond any section the pipeline frames.
const SectionLenBytes = 5

// ReserveSectionLen appends a SectionLenBytes-wide length-prefix
// placeholder, returning the grown slice. It is the zero-copy counterpart
// of AppendSection: a producer reserves the prefix, appends the section
// payload directly behind it (no staging buffer), then backfills the real
// length with PatchSectionLen. The padded encoding — continuation bits set
// on leading zero groups — is still a valid uvarint, so ReadSection and
// binary.ReadUvarint consume it transparently.
func ReserveSectionLen(dst []byte) []byte {
	return append(dst, 0, 0, 0, 0, 0)
}

// PatchSectionLen writes n as a padded uvarint into the placeholder
// previously reserved at pos. n must fit SectionLenBytes varint groups
// (n < 2^35).
func PatchSectionLen(dst []byte, pos int, n uint64) {
	if n >= 1<<(7*SectionLenBytes) {
		panic(fmt.Sprintf("ebcl: section length %d exceeds %d-byte prefix", n, SectionLenBytes))
	}
	for i := 0; i < SectionLenBytes-1; i++ {
		dst[pos+i] = byte(n)&0x7F | 0x80
		n >>= 7
	}
	dst[pos+SectionLenBytes-1] = byte(n)
}

// ReadSection reads a section written by AppendSection starting at pos,
// returning the section contents and the next position.
func ReadSection(src []byte, pos int) ([]byte, int, error) {
	if pos >= len(src) {
		return nil, 0, ErrCorrupt
	}
	l, k := binary.Uvarint(src[pos:])
	if k <= 0 {
		return nil, 0, ErrCorrupt
	}
	pos += k
	if l > uint64(len(src)-pos) {
		return nil, 0, ErrCorrupt
	}
	n := int(l)
	return src[pos : pos+n], pos + n, nil
}

// FloatView reads a float32 section in place — the decode-side replacement
// for materializing a []float32 copy of the section bytes.
type FloatView struct{ b []byte }

// Len returns the element count.
func (v FloatView) Len() int { return len(v.b) / 4 }

// At returns element i (little-endian IEEE-754).
func (v FloatView) At(i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(v.b[4*i:]))
}

// appendFloatSection appends a uvarint-length-prefixed float32 section
// without materializing an intermediate byte copy.
func appendFloatSection(dst []byte, vals []float32) []byte {
	dst = binary.AppendUvarint(dst, uint64(4*len(vals)))
	for _, f := range vals {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(f))
	}
	return dst
}

var zcodec = lossless.NewZstdLike()

// LosslessStageAt runs the trailing lossless stage over dst[at+1:], a
// payload written behind mode byte 0 at dst[at]: when the zstd-like codec
// shrinks it, mode 1 and the compressed bytes replace it. The compressed
// buffer is copied into dst, so it is recycled via the shared sched pool.
func LosslessStageAt(dst []byte, at int) []byte {
	if z, err := zcodec.Compress(dst[at+1:]); err == nil {
		if len(z) < len(dst)-at-1 {
			dst = append(append(dst[:at], 1), z...)
		}
		sched.PutBytes(z)
	}
	return dst
}

// ReadLosslessStage reverses LosslessStageAt. pooled reports whether
// payload is a pooled decompression buffer the caller must hand to
// sched.PutBytes once the bytes are dead, rather than a view into rest.
func ReadLosslessStage(rest []byte) (payload []byte, pooled bool, err error) {
	if len(rest) < 1 {
		return nil, false, ErrCorrupt
	}
	switch rest[0] {
	case 0:
		return rest[1:], false, nil
	case 1:
		z, err := zcodec.Decompress(rest[1:])
		return z, err == nil, err
	default:
		return nil, false, ErrCorrupt
	}
}

// The SZ-family back end. SZ2 and SZ3 differ in how they predict; what
// happens to the prediction residuals is one pipeline, written here once:
//
//	header | f64 ebAbs | lossless stage( kinds | [coeffs] | codes | literals )
//
// every inner section length-prefixed, codes the multi-stream Huffman blob of
// the quantization codes, literals the escape-coded float32s. Under
// LayoutFull kinds holds one byte per block or level; under LayoutKindRuns
// (SZ2 since its zero-line kind) it holds (kind byte, uvarint run) pairs. A
// codec keeps its predictor selection, its side info (kinds, SZ2's regression
// coefficients) and the quantize/dequantize loops.
//
// The keep rule: the lossless stage is tried only when the code blob spends
// under stageMaxBits bits an element. Above that Huffman leaves the codes no
// redundancy an LZ parse finds, so the payload is written raw (mode 0).
const stageMaxBits = 2

// The sampled encode. A blob of at least sampleMinSymbols elements, and so
// codes, has its Huffman code built from a count of every sampleStep-th code
// (Finish), and SZ2 scores its block predictors on a sample of each block:
// the two per-element passes that add no bytes. Smaller blobs, every blob of
// the round_wan10, delta_rounds and ingest_small benchmark workloads among
// them, are encoded as before, byte for byte.
const (
	sampleMinSymbols = 256 << 10
	sampleStep       = 8
)

// Sampled reports whether a blob of n elements takes the sampled encode.
func Sampled(n int) bool { return n >= sampleMinSymbols }

// Format is the constant part of one SZ-family codec's stream.
type Format struct {
	Magic uint32
	Name  string // prefixes the codec's parameter errors
	// Coeffs: the payload has a float32 coefficient section after the kinds.
	Coeffs bool
	// KindRuns: the codec writes its kinds as runs under LayoutKindRuns; it
	// still reads LayoutFull streams, whose kinds are one byte each.
	KindRuns bool
	// Timers, when set, are the histograms the codec's stages are timed in.
	// The codec creates them once with its Format and hands them to core,
	// which exports them as fedsz_stage_seconds.
	Timers *StageTimers
}

// StageTimers are one SZ-family codec's stage histograms and byte counters.
// Finish measures each blob's predict+quantize (from the start its codec
// passes), Huffman encode and lossless stage, Begin and Finish its bytes by
// part (Bytes), and Finish its Tally.Worst over its bound (Utilization: at
// most 1 while the error bound holds); a Held that the blob was encoded
// under observes them here when its caller records it. Open observes each
// blob's Huffman decode.
type StageTimers struct {
	Quantize, HuffmanEncode, Lossless, HuffmanDecode *telemetry.Histogram
	Utilization                                      *telemetry.Histogram
	Bytes                                            ByteCounters
}

// NewStageTimers returns a codec's stage histograms.
func NewStageTimers() *StageTimers {
	h := func() *telemetry.Histogram { return telemetry.NewHistogram(telemetry.DurationBuckets) }
	return &StageTimers{Quantize: h(), HuffmanEncode: h(), Lossless: h(), HuffmanDecode: h(),
		Utilization: telemetry.NewHistogram(telemetry.UtilizationBuckets)}
}

// Part is one kind of byte in an encoded stream, counted where it is written
// (fedsz_encode_bytes_total). The parts of a stream add up to its bytes once
// PartLosslessSaved is subtracted.
type Part int

const (
	// PartHeader: the stream header, each section's name, kind, shape, mode
	// byte and length prefix, and each codec stream's header, bound, stage
	// mode byte and section lengths; the whole of an empty or constant stream.
	PartHeader   Part = iota
	PartTable         // Huffman code-length tables
	PartJump          // Huffman blob framing and jump tables, and chunk jump tables
	PartCodes         // Huffman code streams; the whole blob of a codec without Finish
	PartLiterals      // escaped literals
	PartSideInfo      // predictor side info: block or level kinds, regression coefficients
	// PartLosslessSaved is what the trailing lossless stage took off the
	// parts above: subtract it.
	PartLosslessSaved
	PartFrames    // wire framing: preamble, frame headers, CRCs and the trailer
	PartPartition // the lossless metadata partition's compressed bytes
	NumParts
)

// PartNames are the parts' label values.
var PartNames = [NumParts]string{"header", "huffman_table", "jump", "codes", "literals",
	"side_info", "lossless_saved", "frames", "partition"}

// ByteCounters count one codec's encoded bytes by part.
type ByteCounters [NumParts]telemetry.Counter

// Add counts n bytes of part p.
func (b *ByteCounters) Add(p Part, n int) {
	if n > 0 {
		b[p].Add(uint64(n))
	}
}

// blobObs is what one blob's encode records: for a full-layout blob
// (Finish) its stage times in seconds (lossless < 0 when the stage did not
// run) and its utilization of the bound; for every blob its bytes by part.
type blobObs struct {
	full                                     bool
	quantize, huffman, lossless, utilization float64
	bytes                                    [NumParts]int
}

// record observes o in t.
func (t *StageTimers) record(o *blobObs) {
	if o.full {
		t.Quantize.Observe(o.quantize)
		t.HuffmanEncode.Observe(o.huffman)
		if o.lossless >= 0 {
			t.Lossless.Observe(o.lossless)
		}
		t.Utilization.Observe(o.utilization)
	}
	for p, n := range o.bytes {
		t.Bytes.Add(Part(p), n)
	}
}

// keep holds o where p says (Hold). An encode under Params that hold
// nothing observes nothing: the caller that ships the blob records it.
func keep(p Params, o *blobObs) {
	if p.held != nil {
		p.held.hold(o)
	}
}

// Held keeps the observations of the blobs encoded under Hold until the
// caller knows whether they ship: Record observes them, and what is never
// recorded is never observed. The chunks of one blob may be held from
// concurrent encodes.
type Held struct {
	mu  sync.Mutex
	obs []blobObs
}

func (h *Held) hold(o *blobObs) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.obs = append(h.obs, *o)
}

// Record observes the held blobs in t, a nil t dropping them, and empties h.
func (h *Held) Record(t *StageTimers) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.obs {
		if t != nil {
			t.record(&h.obs[i])
		}
	}
	h.obs = h.obs[:0]
}

// layout is the full-pipeline layout byte f writes.
func (f Format) layout() byte {
	if f.KindRuns {
		return LayoutKindRuns
	}
	return LayoutFull
}

// Begin resolves the error bound for data. For empty or constant input it
// writes the whole stream to dst and reports done; otherwise the codec
// quantizes under ebAbs and hands the result to Finish.
func (f Format) Begin(dst []byte, data []float32, p Params) (ebAbs float64, out []byte, done bool, err error) {
	if p.Mode == ModeFixedPrecision {
		return 0, nil, false, fmt.Errorf("%s: fixed-precision mode unsupported", f.Name)
	}
	if ebAbs, err = ResolveAbs(data, p); err != nil {
		return 0, nil, false, err
	}
	out, done = AppendDegenerate(dst, f.Magic, data, ebAbs == 0)
	if done {
		var o blobObs
		o.bytes[PartHeader] = len(out) - len(dst)
		keep(p, &o)
	}
	return ebAbs, out, done, nil
}

// Finish entropy-codes codes (one per element), assembles the payload, runs
// the trailing lossless stage where the keep rule lets it, and appends the
// stream to dst, the code blob written in place. It owns the four slices,
// which come from the sched pools (coeffs may be nil): they and every
// intermediate buffer are back in the pools when it returns, error or not.
// start is when the codec began the blob: the time to Finish is its
// predict+quantize stage. p is the blob's Params, which say whether its
// observations are recorded or held. t is the quantize loops' Tally over
// codes, one EscapeCode a literal. With its span a blob Sampled admits
// builds its Huffman code from every sampleStep-th code, the escapes counted
// from literals and every code in span given a count, so each code present
// gets one; the zero span has every code counted. Its Worst over ebAbs is
// the blob's utilization of the bound.
func (f Format) Finish(dst []byte, start time.Time, ebAbs float64, p Params, kinds []byte, coeffs []float32, codes []uint16, t Tally, literals []float32) ([]byte, error) {
	o := blobObs{full: true, lossless: -1, utilization: t.Worst / ebAbs}
	t0 := time.Now()
	o.quantize = t0.Sub(start).Seconds()
	n := len(codes)
	if f.KindRuns {
		runs := kindRuns(kinds)
		sched.PutBytes(kinds)
		kinds = runs
	}
	base := len(dst)
	dst = AppendHeader(dst, f.Magic, n, f.layout())
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(ebAbs))
	mode := len(dst)
	dst = AppendSection(append(dst, 0), kinds)
	o.bytes[PartSideInfo] = len(kinds)
	if f.Coeffs {
		dst = appendFloatSection(dst, coeffs)
		o.bytes[PartSideInfo] += 4 * len(coeffs)
	}
	sched.PutBytes(kinds)
	sched.PutFloats(coeffs)
	step, b := 1, huffman.Bounds{}
	if t.Span != (CodeSpan{}) && Sampled(n) {
		step, b = sampleStep, huffman.Bounds{Lo: t.Span.Lo, Hi: t.Span.Hi, Zeros: len(literals)}
	}
	dst, hp, err := huffman.AppendMulti(dst, codes, QuantAlphabet, huffman.DefaultStreams, step, b)
	sched.PutUint16s(codes)
	if err != nil {
		sched.PutFloats(literals)
		return nil, err
	}
	t1 := time.Now()
	o.huffman = t1.Sub(t0).Seconds()
	o.bytes[PartTable], o.bytes[PartJump], o.bytes[PartCodes] = hp.Table, hp.Jump, hp.Codes
	dst = appendFloatSection(dst, literals)
	o.bytes[PartLiterals] = 4 * len(literals)
	sched.PutFloats(literals)
	if 8*(hp.Table+hp.Jump+hp.Codes) < stageMaxBits*n {
		staged := LosslessStageAt(dst, mode)
		o.bytes[PartLosslessSaved] = len(dst) - len(staged)
		o.lossless = time.Since(t1).Seconds()
		dst = staged
	}
	o.bytes[PartHeader] = len(dst) - base + o.bytes[PartLosslessSaved]
	for _, part := range []Part{PartSideInfo, PartTable, PartJump, PartCodes, PartLiterals} {
		o.bytes[PartHeader] -= o.bytes[part]
	}
	keep(p, &o)
	return dst, nil
}

// kindRuns returns kinds as (kind byte, uvarint run) pairs in a pooled
// buffer: a run of r takes 1 + uvarint(r) ≤ 1 + r bytes.
func kindRuns(kinds []byte) []byte {
	runs := sched.GetBytes(2 * len(kinds))
	for i, j := 0, 1; i < len(kinds); j++ {
		if j == len(kinds) || kinds[j] != kinds[i] {
			runs = binary.AppendUvarint(append(runs, kinds[i]), uint64(j-i))
			i = j
		}
	}
	return runs
}

// Sections is an opened SZ-family stream: what Finish was given, read back
// and checked as far as the frame goes (the codec checks Kinds and Coeffs
// against its own predictor structure). Use a local value; Close it when the
// reconstruction is done.
type Sections struct {
	EbAbs  float64
	Kinds  []byte
	Runs   bool // Kinds holds runs (LayoutKindRuns); read them with NextKinds
	Coeffs FloatView
	Codes  []uint16 // one per element; an EscapeCode takes NextLiteral
	// Span holds every code other than EscapeCode the blob's Huffman code
	// can decode to, and so every such code in Codes.
	Span CodeSpan

	lits   []byte // unread literals
	short  bool   // a literal was asked for after the last one
	staged []byte // pooled lossless-stage output the views above point into
	table  *zeroLineTable
}

// zeroLineTable holds a blob's zero-line reconstructions (zeroTable): one
// per code in Span, from tablePool. A pool of its own keeps decode's float
// buffers one a tensor.
type zeroLineTable [QuantAlphabet]float32

var tablePool = sync.Pool{New: func() any { return new(zeroLineTable) }}

// zeroTable returns the reconstruction table of a zero-line block: entry
// c − Span.Lo is code c dequantized against the prediction +0, for every
// code in Span. DequantizeLinear reads a block of n ≥ 8 elements from it
// when a and b are +0, where it is exactly the block's dequantization. It
// is built on the first such block and kept for the blob. An entry costs
// about what five elements save (1.5–2 ns against 0.3–0.4 on a 2-vCPU Xeon),
// so for a span wider than an eighth of the blob's codes none is built and
// nil is returned.
func (s *Sections) zeroTable(q Quantizer, a, b float64, n int) []float32 {
	if math.Float64bits(a)|math.Float64bits(b) != 0 || n < 8 {
		return nil
	}
	lo, hi := int(s.Span.Lo), int(s.Span.Hi)
	if lo == EscapeCode || lo > hi || 8*(hi-lo+1) > len(s.Codes) {
		return nil
	}
	if s.table == nil {
		s.table = tablePool.Get().(*zeroLineTable)
		for j := range s.table[:hi-lo+1] {
			s.table[j] = q.Dequantize(lo+j, 0)
		}
	}
	return s.table[:hi-lo+1]
}

// Open parses stream. For the layouts Begin finished by itself out is the
// complete reconstruction and full is false, as it is on error. Otherwise s
// holds the sections and out is the n-element destination (dst's storage when
// large enough) for the codec to fill.
func (s *Sections) Open(f Format, dst []float32, stream []byte) (out []float32, full bool, err error) {
	out, n, rest, full, err := DecodeLayout(dst, stream, f.Magic, f.layout())
	if !full {
		return out, false, err
	}
	s.Runs = stream[8] == LayoutKindRuns
	if len(rest) < 8 {
		return nil, false, ErrCorrupt
	}
	s.EbAbs = math.Float64frombits(binary.LittleEndian.Uint64(rest))
	if !(s.EbAbs > 0) || math.IsInf(s.EbAbs, 0) {
		return nil, false, ErrCorrupt
	}
	// A zstd-like frame starts with the length it decompresses to. Refuse one
	// beyond any payload of n elements (3 code and 4 literal bytes each, side
	// info, the code table) before a byte of it is built.
	if len(rest) >= 13 && rest[8] == 1 && uint64(binary.LittleEndian.Uint32(rest[9:])) > 8*uint64(n)+1<<18 {
		return nil, false, ErrCorrupt
	}
	payload, pooled, err := ReadLosslessStage(rest[8:])
	if pooled {
		s.staged = payload
	}
	var sec [4][]byte // kinds, coeffs, code blob, literals
	for i, pos := 0, 0; i < len(sec) && err == nil; i++ {
		if i != 1 || f.Coeffs {
			sec[i], pos, err = ReadSection(payload, pos)
		}
	}
	if err == nil && (len(sec[1])%4 != 0 || len(sec[3])%4 != 0) {
		err = ErrCorrupt
	}
	if err == nil {
		s.Kinds, s.Coeffs.b, s.lits = sec[0], sec[1], sec[3]
		t0 := time.Now()
		s.Codes, s.Span.Lo, s.Span.Hi, err = huffman.DecodeMultiSpan(sec[2], QuantAlphabet)
		if f.Timers != nil {
			f.Timers.HuffmanDecode.Observe(time.Since(t0).Seconds())
		}
	}
	if err == nil && len(s.Codes) != n {
		err = ErrCorrupt
	}
	if err != nil {
		s.Close()
		if !errors.Is(err, ErrCorrupt) { // the lossless stage's or Huffman's own
			err = fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		return nil, false, err
	}
	return GrowFloats(dst, n), true, nil
}

// NextKinds consumes the next kind and returns it with the blocks (or levels)
// it covers, 1 to left: one under LayoutFull, the pair's run under
// LayoutKindRuns. ok is false past the end and for a run that is zero, over
// left or cut short; the codec checks the kind. Nothing is allocated.
func (s *Sections) NextKinds(left int) (kind byte, run int, ok bool) {
	if len(s.Kinds) == 0 {
		return 0, 0, false
	}
	kind = s.Kinds[0]
	if !s.Runs {
		s.Kinds = s.Kinds[1:]
		return kind, 1, true
	}
	v, k := binary.Uvarint(s.Kinds[1:])
	if k <= 0 || v == 0 || v > uint64(left) {
		return 0, 0, false
	}
	s.Kinds = s.Kinds[1+k:]
	return kind, int(v), true
}

// NextLiteral returns the next escape-coded value. Past the last one it
// returns 0 and LiteralsConsumed turns false, so the reconstruction loops
// carry no error path of their own.
func (s *Sections) NextLiteral() float32 {
	if len(s.lits) < 4 {
		s.short = true
		return 0
	}
	v := math.Float32frombits(binary.LittleEndian.Uint32(s.lits))
	s.lits = s.lits[4:]
	return v
}

// LiteralsConsumed reports whether the reconstruction asked for exactly the
// literals the stream carries; anything else is a corrupt stream.
func (s *Sections) LiteralsConsumed() bool { return !s.short && len(s.lits) == 0 }

// Close returns the pooled buffers behind s; its fields are dead afterwards.
func (s *Sections) Close() {
	sched.PutUint16s(s.Codes)
	sched.PutBytes(s.staged)
	if s.table != nil {
		tablePool.Put(s.table)
	}
	*s = Sections{}
}
