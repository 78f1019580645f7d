package tensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"

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

// entryLayout is where one serialized entry's fields sit in the buffer.
type entryLayout struct {
	name []byte
	kind Kind
	dims []byte // rank little-endian u32s
	vals []byte // the elements, 4 bytes each
	next int    // offset of the entry that follows
}

// layoutAt delimits the entry that starts at data[pos:], checking that every
// field it declares lies inside data.
func layoutAt(data []byte, pos int) (entryLayout, bool) {
	if pos+2 > len(data) {
		return entryLayout{}, false
	}
	nameLen := int(binary.LittleEndian.Uint16(data[pos:]))
	pos += 2
	if pos+nameLen+2 > len(data) {
		return entryLayout{}, false
	}
	l := entryLayout{name: data[pos : pos+nameLen], kind: Kind(data[pos+nameLen])}
	rank := int(data[pos+nameLen+1])
	pos += nameLen + 2
	if pos+4*rank > len(data) {
		return entryLayout{}, false
	}
	l.dims = data[pos : pos+4*rank]
	pos += 4 * rank
	// The element count saturates just above what the rest of data holds, so
	// hostile dimensions cannot multiply around to a small count; a zero
	// dimension still makes it zero.
	room := uint64(len(data)-pos) / 4
	elems := uint64(1)
	for d := 0; d < rank; d++ {
		hi, lo := bits.Mul64(elems, uint64(binary.LittleEndian.Uint32(l.dims[4*d:])))
		if hi != 0 || lo > room {
			lo = room + 1
		}
		elems = lo
	}
	if elems > room {
		return entryLayout{}, false
	}
	l.vals = data[pos : pos+4*int(elems)]
	l.next = pos + len(l.vals)
	return l, true
}

// UnmarshalStateDict parses a buffer produced by Marshal. It delimits and
// checks every entry first, then builds the dict in a fixed number of
// allocations, however many entries it holds: one each for all the names
// (one string), the shapes, the tensor headers, the entries and the name
// index, plus a pooled float buffer per entry.
func UnmarshalStateDict(data []byte) (*StateDict, error) {
	if len(data) < 8 {
		return nil, ErrBadFormat
	}
	if binary.LittleEndian.Uint32(data) != stateDictMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
	// Every entry takes at least 8 bytes, so a count that passes this loop is
	// bounded by len(data)/8 before anything is sized by it.
	count := binary.LittleEndian.Uint32(data[4:])
	nameBytes, dims := 0, 0
	for i, pos := uint32(0), 8; i < count; i++ {
		l, ok := layoutAt(data, pos)
		if !ok {
			return nil, ErrBadFormat
		}
		nameBytes += len(l.name)
		dims += len(l.dims) / 4
		pos = l.next
	}

	var names strings.Builder
	names.Grow(nameBytes)
	shapes := make([]int, dims)
	tensors := make([]Tensor, count)
	sd := &StateDict{entries: make([]Entry, count), byName: make(map[string]int, count)}
	for i, pos := 0, 8; i < len(tensors); i++ {
		l, _ := layoutAt(data, pos)
		pos = l.next
		// The builder only appends, and Grow sized it for every name, so each
		// name is a view of the one string the builder holds.
		names.Write(l.name)
		all := names.String()
		name := all[len(all)-len(l.name):]
		if _, dup := sd.byName[name]; dup {
			// Recycle the pooled buffers of the entries decoded so far: a
			// malformed stream from an untrusted client must not bleed warm
			// pool capacity.
			for _, e := range sd.entries[:i] {
				sched.PutFloats(e.Tensor.Data)
			}
			return nil, fmt.Errorf("%w: duplicate entry %q", ErrBadFormat, name)
		}
		rank := len(l.dims) / 4
		shape := shapes[:rank:rank]
		shapes = shapes[rank:]
		for d := range shape {
			shape[d] = int(binary.LittleEndian.Uint32(l.dims[4*d:]))
		}
		// Decode into a pool-backed buffer: metadata-partition tensors then
		// follow the same recycle discipline as the lossy partition's.
		n := len(l.vals) / 4
		vals := sched.GetFloats(n)[:n]
		for j := range vals {
			vals[j] = math.Float32frombits(binary.LittleEndian.Uint32(l.vals[4*j:]))
		}
		tensors[i] = Tensor{Shape: shape, Data: vals}
		sd.entries[i] = Entry{Name: name, Kind: l.kind, Tensor: &tensors[i]}
		sd.byName[name] = i
	}
	return sd, nil
}
