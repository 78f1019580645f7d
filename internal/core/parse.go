package core

// Section parsers: the one reading of the stream layout. Each function
// takes a complete section — a wire frame's payload, or the bytes a
// delimiter cut out of a serialized stream — and validates everything in
// it, so DecodeSections, Sections and a transport inspecting frames all
// accept exactly the same bytes. The compressed blobs are left untouched.

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

// streamVersionOf validates the magic and version that open a stream (its
// first five bytes) and returns the version.
func streamVersionOf(b []byte) (byte, error) {
	if len(b) < 5 || binary.LittleEndian.Uint32(b) != streamMagic {
		return 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if !supportedStreamVersion(b[4]) {
		return 0, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, b[4])
	}
	return b[4], nil
}

// ParseHeader parses a header section payload. The returned header's Flags
// field aliases section.
func ParseHeader(section []byte) (*ParsedHeader, error) {
	version, err := streamVersionOf(section)
	if err != nil {
		return nil, err
	}
	h := &ParsedHeader{Version: version}
	pos := 5
	if h.LossyName, pos, err = readString(section, pos); err != nil {
		return nil, fmt.Errorf("%w: lossy compressor name", ErrCorrupt)
	}
	if h.LosslessName, pos, err = readString(section, pos); err != nil {
		return nil, fmt.Errorf("%w: lossless codec name", ErrCorrupt)
	}
	if h.IsDelta() {
		if pos+4 > len(section) {
			return nil, fmt.Errorf("%w: reference epoch", ErrCorrupt)
		}
		h.RefEpoch = binary.LittleEndian.Uint32(section[pos:])
		pos += 4
	}
	if pos+4 > len(section) {
		return nil, fmt.Errorf("%w: entry count", ErrCorrupt)
	}
	count := int(binary.LittleEndian.Uint32(section[pos:]))
	pos += 4
	if count > maxStreamEntries || pos+count != len(section) {
		return nil, fmt.Errorf("%w: header flag array", ErrCorrupt)
	}
	h.Flags = section[pos : pos+count]
	for _, f := range h.Flags {
		switch f {
		case pathLossy:
			h.LossyCount++
		case pathLossless:
		default:
			return nil, fmt.Errorf("%w: path flag %d", ErrCorrupt, f)
		}
	}
	return h, nil
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
// stream version (v3 sections carry a mode byte). The returned tensor's
// Blob aliases section. It is returned by value, so a decode loop parsing
// one section per tensor keeps it off the heap.
func ParseTensorSection(hdr *ParsedHeader, section []byte) (ParsedTensor, error) {
	return parseTensorSection(hdr, section, nil)
}

// parseTensorSection is ParseTensorSection. When like, a tensor of a
// round's adopted structure, has the section's name and shape, the parsed
// tensor shares like's Name and Shape instead of allocating its own.
func parseTensorSection(hdr *ParsedHeader, section []byte, like *TensorShape) (ParsedTensor, error) {
	var pt ParsedTensor
	if len(section) == 0 || 1+int(section[0]) > len(section) {
		return ParsedTensor{}, fmt.Errorf("%w: tensor name", ErrCorrupt)
	}
	name := section[1 : 1+int(section[0])]
	pos := 1 + len(name)
	if pos+2 > len(section) {
		return ParsedTensor{}, fmt.Errorf("%w: tensor metadata", ErrCorrupt)
	}
	pt.Kind = tensor.Kind(section[pos])
	rank := int(section[pos+1])
	pos += 2
	if pos+4*rank > len(section) {
		return ParsedTensor{}, fmt.Errorf("%w: tensor shape", ErrCorrupt)
	}
	// Each dimension and the running product are checked as uint64, so no
	// int conversion can wrap where int is 32 bits.
	dims := section[pos : pos+4*rank]
	elems := uint64(1)
	shared := like != nil && len(like.Shape) == rank && string(name) == like.Name
	for d := range rank {
		n := uint64(binary.LittleEndian.Uint32(dims[4*d:]))
		if elems *= n; n > ebcl.MaxElements || elems > ebcl.MaxElements {
			return ParsedTensor{}, fmt.Errorf("%w: tensor %q element count exceeds %w", ErrCorrupt, name, ErrLimit)
		}
		shared = shared && n == uint64(like.Shape[d])
	}
	pt.Elems = int(elems)
	if shared {
		pt.Name, pt.Shape = like.Name, like.Shape
	} else {
		pt.Name = string(name)
		pt.Shape = make([]int, rank)
		for d := range pt.Shape {
			pt.Shape[d] = int(binary.LittleEndian.Uint32(dims[4*d:]))
		}
	}
	pos += 4 * rank
	if hdr.IsDelta() {
		if pos >= len(section) {
			return ParsedTensor{}, fmt.Errorf("%w: tensor mode", ErrCorrupt)
		}
		switch section[pos] {
		case sectionAbsolute:
		case sectionDelta:
			pt.Delta = true
		default:
			return ParsedTensor{}, fmt.Errorf("%w: tensor %q section mode %d", ErrCorrupt, pt.Name, section[pos])
		}
		pos++
	}
	var err error
	if pt.Blob, pos, err = ebcl.ReadSection(section, pos); err != nil {
		return ParsedTensor{}, fmt.Errorf("%w: lossy section %q: %w", ErrCorrupt, pt.Name, err)
	}
	if pos != len(section) {
		return ParsedTensor{}, fmt.Errorf("%w: tensor section %q has %d trailing bytes", ErrCorrupt, pt.Name, len(section)-pos)
	}
	return pt, nil
}

// codecs resolves the header's codec names against the registries.
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

// decodeLossless decompresses the metadata partition from a lossless
// section (the uvarint-length-prefixed blob a wire FrameLossless carries):
// the serialized entries, in a pooled byte buffer (recycle via
// sched.PutBytes). DecodedStream.validate checks what they hold.
func decodeLossless(codec lossless.Codec, section []byte) ([]byte, error) {
	blob, pos, err := ebcl.ReadSection(section, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: metadata section: %w", ErrCorrupt, err)
	}
	if pos != len(section) {
		return nil, fmt.Errorf("%w: metadata section has %d trailing bytes", ErrCorrupt, len(section)-pos)
	}
	raw, err := codec.Decompress(blob)
	if err != nil {
		return nil, fmt.Errorf("%w: lossless decompress: %w", ErrCorrupt, err)
	}
	return raw, nil
}
