package core

// Section parsers: the one reading of the stream layout. Each section has
// one reader that takes the bytes a section opens and returns where the
// section ends: headerAt, tensorAt, and losslessAt over ebcl.ReadSection.
// They check every field and allocate nothing, so the in-memory delimiter
// (memSections) cuts a stream with them, and the exact forms (ParseHeader,
// ParseTensorSection, decodeLossless) are the same readers plus a check
// that the section ends where its bytes do, for a wire frame's payload or a
// section the delimiter cut. DecodeSections, Sections and a transport
// inspecting frames therefore accept exactly the same bytes. The compressed
// blobs are left untouched.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/compressors"
	"repro/internal/ebcl"
	"repro/internal/lossless"
	"repro/internal/tensor"
)

// ParsedHeader is the decoded form of a stream's header section — the
// payload of a wire FrameHeader.
type ParsedHeader struct {
	// Version is the stream format version (1–4).
	Version byte
	// LossyName and LosslessName select the codecs by name.
	LossyName    string
	LosslessName string
	// RefEpoch is the delta reference epoch (v3/v4 streams only, else 0; a
	// v4 stream encoded without a reference pins it to 0).
	RefEpoch uint32
	// Flags holds the per-entry path flags in original dict order — a view
	// into the section, valid only while the section bytes live.
	Flags []byte
	// LossyCount is the number of tensor sections that follow the header.
	LossyCount int
}

// IsDelta reports whether tensor sections carry a mode byte (v3 and v4
// layouts; in a v4 stream encoded without a reference every mode byte is
// absolute).
func (h *ParsedHeader) IsDelta() bool {
	return h.Version == streamVersionV3 || h.Version == streamVersionV4
}

// Chunked reports whether tensor sections may carry chunked (v4) blobs.
func (h *ParsedHeader) Chunked() bool { return h.Version == streamVersionV4 }

// ParseHeader parses a header section payload. The returned header's Flags
// field aliases section.
func ParseHeader(section []byte) (*ParsedHeader, error) {
	h, names, n, err := headerAt(section)
	if err == nil && n != len(section) {
		err = fmt.Errorf("%w: header section has %d trailing bytes", ErrCorrupt, len(section)-n)
	}
	if err != nil {
		return nil, err
	}
	h.LossyName, h.LosslessName = string(names[0]), string(names[1])
	return &h, nil
}

// headerAt reads the header section that opens b, the one reading of its
// layout, and returns the header, its codec names (views of b, which it
// leaves out of the header) and the section's length. It checks every field
// and allocates nothing, so a delimiter can call it.
func headerAt(b []byte) (h ParsedHeader, names [2][]byte, n int, err error) {
	if len(b) < 5 || binary.LittleEndian.Uint32(b) != streamMagic {
		return h, names, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if h.Version = b[4]; !supportedStreamVersion(h.Version) {
		return h, names, 0, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, h.Version)
	}
	pos := 5
	var ok bool
	if names[0], pos, ok = nameAt(b, pos); !ok {
		return h, names, 0, fmt.Errorf("%w: lossy compressor name", ErrCorrupt)
	}
	if names[1], pos, ok = nameAt(b, pos); !ok {
		return h, names, 0, fmt.Errorf("%w: lossless codec name", ErrCorrupt)
	}
	if h.IsDelta() {
		if pos+4 > len(b) {
			return h, names, 0, fmt.Errorf("%w: reference epoch", ErrCorrupt)
		}
		h.RefEpoch = binary.LittleEndian.Uint32(b[pos:])
		pos += 4
	}
	if pos+4 > len(b) {
		return h, names, 0, fmt.Errorf("%w: entry count", ErrCorrupt)
	}
	// The cap is checked as read, before int conversion, which would wrap
	// the count on a 32-bit platform.
	count := binary.LittleEndian.Uint32(b[pos:])
	if count > maxStreamEntries {
		return h, names, 0, fmt.Errorf("%w: entry count %d exceeds %w", ErrCorrupt, count, ErrLimit)
	}
	pos += 4
	end := pos + int(count)
	if end > len(b) {
		return h, names, 0, fmt.Errorf("%w: header flag array", ErrCorrupt)
	}
	h.Flags = b[pos:end]
	for _, f := range h.Flags {
		switch f {
		case pathLossy:
			h.LossyCount++
		case pathLossless:
		default:
			return h, names, 0, fmt.Errorf("%w: path flag %d", ErrCorrupt, f)
		}
	}
	return h, names, end, nil
}

// nameAt reads the one-byte-length-prefixed name at b[pos:] in place and
// returns it with the position after it.
func nameAt(b []byte, pos int) ([]byte, int, bool) {
	if pos >= len(b) || pos+1+int(b[pos]) > len(b) {
		return nil, 0, false
	}
	end := pos + 1 + int(b[pos])
	return b[pos+1 : end], end, true
}

// ParsedTensor is the decoded metadata of one tensor section — the payload
// of a wire FrameTensor — with the compressed blob left untouched.
type ParsedTensor struct {
	Name  string
	Kind  tensor.Kind
	Shape []int
	Elems int
	// Delta marks a v3 residual section: the blob decodes to update −
	// reference, and the decoder folds the reference back in.
	Delta bool
	// Blob is the compressed payload — a view into the section, valid only
	// while the section bytes live.
	Blob []byte
}

// ParseTensorSection parses one tensor section payload. hdr supplies the
// stream version (v3 and v4 sections carry a mode byte). The returned
// tensor's Blob aliases section. It is returned by value, so a decode loop
// parsing one section per tensor keeps it off the heap. When like, a tensor
// of a round's adopted structure (nil for none), has the section's name and
// shape, the parsed tensor shares like's Name and Shape instead of
// allocating its own.
func ParseTensorSection(hdr *ParsedHeader, section []byte, like *TensorShape) (ParsedTensor, error) {
	f, n, err := tensorAt(hdr, section)
	if err == nil && n != len(section) {
		err = fmt.Errorf("%w: tensor section %q has %d trailing bytes", ErrCorrupt, f.name, len(section)-n)
	}
	if err != nil {
		return ParsedTensor{}, err
	}
	pt := f.ParsedTensor
	rank := len(f.dims) / 4
	shared := like != nil && len(like.Shape) == rank && string(f.name) == like.Name
	for d := 0; shared && d < rank; d++ {
		shared = int(binary.LittleEndian.Uint32(f.dims[4*d:])) == like.Shape[d]
	}
	if shared {
		pt.Name, pt.Shape = like.Name, like.Shape
		return pt, nil
	}
	pt.Name = string(f.name)
	pt.Shape = make([]int, rank)
	for d := range pt.Shape {
		pt.Shape[d] = int(binary.LittleEndian.Uint32(f.dims[4*d:]))
	}
	return pt, nil
}

// tensorFields is a tensor section as tensorAt reads it: every field but
// Name and Shape, whose bytes name and dims (rank little-endian uint32s)
// are views of the section.
type tensorFields struct {
	ParsedTensor
	name, dims []byte
}

// tensorAt reads the tensor section that opens b, the one reading of its
// layout, and returns its fields and the section's length. hdr supplies
// the stream version (v3 and v4 sections carry a mode byte). It checks
// every field and allocates nothing, so a delimiter can call it.
func tensorAt(hdr *ParsedHeader, b []byte) (f tensorFields, n int, err error) {
	var pos int
	var ok bool
	if f.name, pos, ok = nameAt(b, 0); !ok {
		return f, 0, fmt.Errorf("%w: tensor name", ErrCorrupt)
	}
	if pos+2 > len(b) {
		return f, 0, fmt.Errorf("%w: tensor metadata", ErrCorrupt)
	}
	f.Kind = tensor.Kind(b[pos])
	rank := int(b[pos+1])
	pos += 2
	if pos+4*rank > len(b) {
		return f, 0, fmt.Errorf("%w: tensor shape", ErrCorrupt)
	}
	f.dims = b[pos : pos+4*rank]
	pos += 4 * rank
	// Each dimension and the running product are checked as uint64, so no
	// int conversion can wrap where int is 32 bits.
	elems := uint64(1)
	for d := range rank {
		dim := uint64(binary.LittleEndian.Uint32(f.dims[4*d:]))
		if elems *= dim; dim > ebcl.MaxElements || elems > ebcl.MaxElements {
			return f, 0, fmt.Errorf("%w: tensor %q element count exceeds %w", ErrCorrupt, f.name, ErrLimit)
		}
	}
	f.Elems = int(elems)
	if hdr.IsDelta() {
		if pos >= len(b) {
			return f, 0, fmt.Errorf("%w: tensor mode", ErrCorrupt)
		}
		switch b[pos] {
		case sectionAbsolute:
		case sectionDelta:
			f.Delta = true
		default:
			return f, 0, fmt.Errorf("%w: tensor %q section mode %d", ErrCorrupt, f.name, b[pos])
		}
		pos++
	}
	if f.Blob, pos, err = ebcl.ReadSection(b, pos); err != nil {
		return f, 0, fmt.Errorf("%w: lossy section %q: %w", ErrCorrupt, f.name, err)
	}
	return f, pos, nil
}

// codecs resolves the header's codec names against the codec tables.
func (h *ParsedHeader) codecs() (ebcl.Compressor, lossless.Codec, error) {
	lossy, err := compressors.Get(h.LossyName)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	codec, err := lossless.Get(h.LosslessName)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return lossy, codec, nil
}

// losslessAt reads the lossless section that opens b (ebcl.ReadSection's
// uvarint-length-prefixed blob) and returns the blob and the section's
// length.
func losslessAt(b []byte) ([]byte, int, error) {
	blob, n, err := ebcl.ReadSection(b, 0)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: metadata section: %w", ErrCorrupt, err)
	}
	return blob, n, nil
}

// decodeLossless decompresses the metadata partition from a lossless
// section (the payload of a wire FrameLossless): the serialized entries, in
// a pooled byte buffer (recycle via sched.PutBytes). DecodedStream.validate
// checks what they hold.
func decodeLossless(codec lossless.Codec, section []byte) ([]byte, error) {
	blob, n, err := losslessAt(section)
	if err != nil {
		return nil, err
	}
	if n != len(section) {
		return nil, fmt.Errorf("%w: metadata section has %d trailing bytes", ErrCorrupt, len(section)-n)
	}
	raw, err := codec.Decompress(blob)
	if err != nil {
		return nil, fmt.Errorf("%w: lossless decompress: %w", ErrCorrupt, err)
	}
	return raw, nil
}
