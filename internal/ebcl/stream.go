package ebcl

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/lossless"
	"repro/internal/sched"
)

// Shared stream framing for the SZ-family compressors: length-prefixed
// sections, a common header layout, and the optional trailing lossless
// stage (SZ2/SZ3 run Zstd after Huffman; we use the zstd-like codec).

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
	n = int(binary.LittleEndian.Uint32(stream[4:]))
	if n > MaxElements {
		return 0, 0, nil, fmt.Errorf("%w: element count %d exceeds limit", ErrCorrupt, n)
	}
	return n, stream[8], stream[9:], nil
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
		out = AppendHeader(dst, magic, len(data), LayoutConstant)
		return binary.LittleEndian.AppendUint32(out, math.Float32bits(data[0])), true
	}
	return dst, false
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
	if int(l) < 0 || pos+int(l) > len(src) {
		return nil, 0, ErrCorrupt
	}
	return src[pos : pos+int(l)], pos + int(l), nil
}

// FloatView reads a float32 literal section in place — the decode-side
// replacement for materializing a []float32 copy of the section bytes.
type FloatView struct{ b []byte }

// NewFloatView validates that b is a whole number of float32s.
func NewFloatView(b []byte) (FloatView, error) {
	if len(b)%4 != 0 {
		return FloatView{}, ErrCorrupt
	}
	return FloatView{b}, nil
}

// Len returns the element count.
func (v FloatView) Len() int { return len(v.b) / 4 }

// At returns element i (little-endian IEEE-754).
func (v FloatView) At(i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(v.b[4*i:]))
}

// AppendFloatSection appends a uvarint-length-prefixed float32 literal
// section without materializing an intermediate byte copy.
func AppendFloatSection(dst []byte, vals []float32) []byte {
	dst = binary.AppendUvarint(dst, uint64(4*len(vals)))
	for _, f := range vals {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(f))
	}
	return dst
}

var zcodec = lossless.NewZstdLike()

// AppendLosslessStage appends payload to out, passing it through the
// zstd-like codec first when that wins (and unless disabled). A mode byte
// records which representation was kept. The intermediate compressed
// buffer is copied into out, so it is recycled via the shared sched pool.
func AppendLosslessStage(out, payload []byte, disable bool) []byte {
	if !disable {
		if z, err := zcodec.Compress(payload); err == nil {
			if len(z) < len(payload) {
				out = append(out, 1)
				out = append(out, z...)
				sched.PutBytes(z)
				return out
			}
			sched.PutBytes(z)
		}
	}
	out = append(out, 0)
	return append(out, payload...)
}

func releaseNothing() {}

// ReadLosslessStage reverses AppendLosslessStage. The returned payload is
// either a view into rest or a pooled decompression buffer; release must be
// called exactly once when the payload bytes are dead so pooled buffers go
// back to the sched pool instead of the garbage collector.
func ReadLosslessStage(rest []byte) (payload []byte, release func(), err error) {
	if len(rest) < 1 {
		return nil, nil, ErrCorrupt
	}
	switch rest[0] {
	case 0:
		return rest[1:], releaseNothing, nil
	case 1:
		z, err := zcodec.Decompress(rest[1:])
		if err != nil {
			return nil, nil, err
		}
		return z, func() { sched.PutBytes(z) }, nil
	default:
		return nil, nil, ErrCorrupt
	}
}
