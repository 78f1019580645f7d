package tensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/sched"
)

// Binary serialization for tensors and state dicts. This replaces the
// paper's pickle step with a deterministic, self-describing little-endian
// format:
//
//	StateDict  := magic(u32) count(u32) Entry*
//	Entry      := nameLen(u16) name kind(u8) rank(u8) dims(u32*rank) f32*
//
// The format is intentionally simple: the FedSZ pipeline compresses the
// *contents* before serialization, so no cleverness is needed here.

const stateDictMagic = 0x46645A31 // "FdZ1"

var (
	// ErrBadFormat is returned when deserialization encounters a malformed
	// or truncated buffer.
	ErrBadFormat = errors.New("tensor: malformed state dict encoding")
)

// AppendFloat32s appends the little-endian bytes of vals to dst.
func AppendFloat32s(dst []byte, vals []float32) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, 4*len(vals))...)
	for i, v := range vals {
		binary.LittleEndian.PutUint32(dst[off+4*i:], math.Float32bits(v))
	}
	return dst
}

// Marshal serializes the state dict to the binary format above.
func (sd *StateDict) Marshal() []byte {
	return sd.MarshalAppend(make([]byte, 0, sd.MarshalSize()))
}

// MarshalSize returns the exact byte length Marshal produces.
func (sd *StateDict) MarshalSize() int {
	size := 8
	for _, e := range sd.entries {
		size += 2 + len(e.Name) + 2 + 4*len(e.Tensor.Shape) + 4*e.Tensor.NumElems()
	}
	return size
}

// MarshalAppend serializes the state dict, appending to dst — the
// pool-friendly variant (size the buffer with MarshalSize).
func (sd *StateDict) MarshalAppend(dst []byte) []byte {
	out := dst
	out = binary.LittleEndian.AppendUint32(out, stateDictMagic)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(sd.entries)))
	for _, e := range sd.entries {
		if len(e.Name) > math.MaxUint16 {
			panic(fmt.Sprintf("tensor: entry name too long (%d bytes)", len(e.Name)))
		}
		out = binary.LittleEndian.AppendUint16(out, uint16(len(e.Name)))
		out = append(out, e.Name...)
		out = append(out, byte(e.Kind), byte(len(e.Tensor.Shape)))
		for _, d := range e.Tensor.Shape {
			out = binary.LittleEndian.AppendUint32(out, uint32(d))
		}
		out = AppendFloat32s(out, e.Tensor.Data)
	}
	return out
}

// UnmarshalStateDict parses a buffer produced by Marshal.
func UnmarshalStateDict(data []byte) (*StateDict, error) {
	if len(data) < 8 {
		return nil, ErrBadFormat
	}
	if binary.LittleEndian.Uint32(data) != stateDictMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
	count := int(binary.LittleEndian.Uint32(data[4:]))
	pos := 8
	sd := NewStateDict()
	// fail recycles the pooled buffers of entries decoded so far: a
	// malformed stream from an untrusted client must not bleed warm pool
	// capacity entry by entry.
	fail := func(err error) (*StateDict, error) {
		for _, e := range sd.entries {
			sched.PutFloats(e.Tensor.Data)
		}
		return nil, err
	}
	for i := 0; i < count; i++ {
		if pos+2 > len(data) {
			return fail(ErrBadFormat)
		}
		nameLen := int(binary.LittleEndian.Uint16(data[pos:]))
		pos += 2
		if pos+nameLen+2 > len(data) {
			return fail(ErrBadFormat)
		}
		name := string(data[pos : pos+nameLen])
		pos += nameLen
		kind := Kind(data[pos])
		rank := int(data[pos+1])
		pos += 2
		if pos+4*rank > len(data) {
			return fail(ErrBadFormat)
		}
		shape := make([]int, rank)
		n := 1
		for d := range shape {
			shape[d] = int(binary.LittleEndian.Uint32(data[pos:]))
			pos += 4
			n *= shape[d]
		}
		if n < 0 || pos+4*n > len(data) {
			return fail(ErrBadFormat)
		}
		// Decode into a pool-backed buffer: metadata-partition tensors then
		// follow the same recycle discipline as the lossy partition's.
		vals := sched.GetFloats(n)[:n]
		for j := range vals {
			vals[j] = math.Float32frombits(binary.LittleEndian.Uint32(data[pos+4*j:]))
		}
		pos += 4 * n
		if sd.Get(name) != nil {
			sched.PutFloats(vals)
			return fail(fmt.Errorf("%w: duplicate entry %q", ErrBadFormat, name))
		}
		sd.Add(name, kind, FromData(vals, shape...))
	}
	return sd, nil
}
