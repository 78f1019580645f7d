package ebcl

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/huffman"
	"repro/internal/lossless"
	"repro/internal/sched"
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

// DecodeLayout parses the common header and finishes the layouts
// AppendDegenerate wrote: for those out is the complete reconstruction in
// dst's storage and full is false. For LayoutFull it returns the element
// count and the bytes after the header, for the codec's own pipeline. full
// is false on error.
func DecodeLayout(dst []float32, stream []byte, magic uint32) (out []float32, n int, rest []byte, full bool, err error) {
	n, layout, rest, err := ParseHeader(stream, magic)
	if err != nil {
		return nil, 0, nil, false, err
	}
	switch layout {
	case LayoutEmpty:
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
	case LayoutFull:
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

// AppendLosslessStage appends payload to out, passing it through the
// zstd-like codec first when that wins. A mode byte records which
// representation was kept. The intermediate compressed buffer is copied
// into out, so it is recycled via the shared sched pool.
func AppendLosslessStage(out, payload []byte) []byte {
	if z, err := zcodec.Compress(payload); err == nil {
		if len(z) < len(payload) {
			out = append(out, 1)
			out = append(out, z...)
			sched.PutBytes(z)
			return out
		}
		sched.PutBytes(z)
	}
	out = append(out, 0)
	return append(out, payload...)
}

// ReadLosslessStage reverses AppendLosslessStage. pooled reports whether
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
// the quantization codes, literals the escape-coded float32s. A codec keeps
// its predictor selection, its side info (per-block or per-level kinds, SZ2's
// regression coefficients) and the quantize/dequantize loops.

// Format is the constant part of one SZ-family codec's stream.
type Format struct {
	Magic uint32
	Name  string // prefixes the codec's parameter errors
	// Coeffs: the payload has a float32 coefficient section after the kinds.
	Coeffs bool
}

// DecodedLen returns the element count from the stream header.
func (f Format) DecodedLen(stream []byte) (int, error) {
	n, _, _, err := ParseHeader(stream, f.Magic)
	return n, err
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
	return ebAbs, out, done, nil
}

// Finish entropy-codes codes (one per element), assembles the payload, runs
// the trailing lossless stage, and appends the stream to dst. It owns the
// four slices, which come from the sched pools (coeffs may be nil): they and
// every intermediate buffer are back in the pools when it returns, error or
// not.
func (f Format) Finish(dst []byte, ebAbs float64, kinds []byte, coeffs []float32, codes []uint16, literals []float32) ([]byte, error) {
	n := len(codes)
	codeBlob, err := huffman.EncodeMultiU16(codes, QuantAlphabet, huffman.DefaultStreams)
	sched.PutUint16s(codes)
	if err == nil {
		payload := sched.GetBytes(len(codeBlob) + 4*len(literals) + 4*len(coeffs) + len(kinds) + 64)
		payload = AppendSection(payload, kinds)
		if f.Coeffs {
			payload = appendFloatSection(payload, coeffs)
		}
		payload = AppendSection(payload, codeBlob)
		payload = appendFloatSection(payload, literals)
		sched.PutBytes(codeBlob)

		dst = AppendHeader(dst, f.Magic, n, LayoutFull)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(ebAbs))
		dst = AppendLosslessStage(dst, payload)
		sched.PutBytes(payload)
	}
	sched.PutBytes(kinds)
	sched.PutFloats(coeffs)
	sched.PutFloats(literals)
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// Sections is an opened SZ-family stream: what Finish was given, read back
// and checked as far as the frame goes (the codec checks Kinds and Coeffs
// against its own predictor structure). Use a local value; Close it when the
// reconstruction is done.
type Sections struct {
	EbAbs  float64
	Kinds  []byte
	Coeffs FloatView
	Codes  []uint16 // one per element; an EscapeCode takes NextLiteral

	lits   []byte // unread literals
	short  bool   // a literal was asked for after the last one
	staged []byte // pooled lossless-stage output the views above point into
}

// Open parses stream. For the layouts Begin finished by itself out is the
// complete reconstruction and full is false, as it is on error. Otherwise s
// holds the sections and out is the n-element destination (dst's storage when
// large enough) for the codec to fill.
func (s *Sections) Open(f Format, dst []float32, stream []byte) (out []float32, full bool, err error) {
	out, n, rest, full, err := DecodeLayout(dst, stream, f.Magic)
	if !full {
		return out, false, err
	}
	if len(rest) < 8 {
		return nil, false, ErrCorrupt
	}
	s.EbAbs = math.Float64frombits(binary.LittleEndian.Uint64(rest))
	if !(s.EbAbs > 0) || math.IsInf(s.EbAbs, 0) {
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
		s.Codes, err = huffman.DecodeMultiU16(sec[2], QuantAlphabet)
	}
	if err == nil && len(s.Codes) != n {
		err = ErrCorrupt
	}
	if err != nil {
		s.Close()
		return nil, false, err
	}
	return GrowFloats(dst, n), true, nil
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
	*s = Sections{}
}
