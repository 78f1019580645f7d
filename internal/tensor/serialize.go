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

// EntryView is one serialized entry read in place: its fields are views of
// the buffer, not copies.
type EntryView struct {
	Name []byte
	Kind Kind
	Dims []byte // rank little-endian u32s
	Vals []byte // the elements, 4 little-endian bytes each
}

// Reader walks a Marshal buffer in place, entry by entry, for a caller that
// needs the names, element counts or values but no StateDict. It makes
// UnmarshalStateDict's checks except the duplicate-name one, which is the
// caller's.
type Reader struct {
	data []byte
	pos  int
}

// NewReader checks data's preamble and returns a Reader at its first entry
// and the entry count the buffer declares. The count is untrusted until Next
// has delimited that many entries: every entry takes at least 8 bytes, so a
// count that passes that loop is bounded by len(data)/8.
func NewReader(data []byte) (Reader, uint32, error) {
	if len(data) < 8 {
		return Reader{}, 0, ErrBadFormat
	}
	if binary.LittleEndian.Uint32(data) != stateDictMagic {
		return Reader{}, 0, fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
	return Reader{data: data, pos: 8}, binary.LittleEndian.Uint32(data[4:]), nil
}

// Next delimits the entry at the reader's position and moves past it,
// checking that every field the entry declares lies inside the buffer; ok is
// false, and the reader stays put, when one does not. It is the format's one
// delimiter.
func (r *Reader) Next() (l EntryView, ok bool) {
	data, pos := r.data, r.pos
	if pos+2 > len(data) {
		return EntryView{}, false
	}
	nameLen := int(binary.LittleEndian.Uint16(data[pos:]))
	pos += 2
	if pos+nameLen+2 > len(data) {
		return EntryView{}, false
	}
	l = EntryView{Name: data[pos : pos+nameLen], Kind: Kind(data[pos+nameLen])}
	rank := int(data[pos+nameLen+1])
	pos += nameLen + 2
	if pos+4*rank > len(data) {
		return EntryView{}, false
	}
	l.Dims = data[pos : pos+4*rank]
	pos += 4 * rank
	// The element count saturates just above what the rest of data holds, so
	// hostile dimensions cannot multiply around to a small count; a zero
	// dimension still makes it zero.
	room := uint64(len(data)-pos) / 4
	elems := uint64(1)
	for d := 0; d < rank; d++ {
		hi, lo := bits.Mul64(elems, uint64(binary.LittleEndian.Uint32(l.Dims[4*d:])))
		if hi != 0 || lo > room {
			lo = room + 1
		}
		elems = lo
	}
	if elems > room {
		return EntryView{}, false
	}
	l.Vals = data[pos : pos+4*int(elems)]
	r.pos = pos + len(l.Vals)
	return l, true
}

// UnmarshalStateDict parses a buffer produced by Marshal. It delimits and
// checks every entry first, then builds the dict in a fixed number of
// allocations, however many entries it holds: one each for all the names
// (one string), the shapes, the tensor headers, the entries and the name
// index, plus a pooled float buffer per entry.
func UnmarshalStateDict(data []byte) (*StateDict, error) {
	r, count, err := NewReader(data)
	if err != nil {
		return nil, err
	}
	// The count is bounded by this loop before anything is sized by it.
	first := r
	nameBytes, dims := 0, 0
	for i := uint32(0); i < count; i++ {
		l, ok := r.Next()
		if !ok {
			return nil, ErrBadFormat
		}
		nameBytes += len(l.Name)
		dims += len(l.Dims) / 4
	}

	var names strings.Builder
	names.Grow(nameBytes)
	shapes := make([]int, dims)
	tensors := make([]Tensor, count)
	sd := &StateDict{entries: make([]Entry, count), byName: make(map[string]int, count)}
	r = first
	for i := range tensors {
		l, _ := r.Next()
		// The builder only appends, and Grow sized it for every name, so each
		// name is a view of the one string the builder holds.
		names.Write(l.Name)
		all := names.String()
		name := all[len(all)-len(l.Name):]
		if _, dup := sd.byName[name]; dup {
			// Recycle the pooled buffers of the entries decoded so far: a
			// malformed stream from an untrusted client must not bleed warm
			// pool capacity.
			for _, e := range sd.entries[:i] {
				sched.PutFloats(e.Tensor.Data)
			}
			return nil, fmt.Errorf("%w: duplicate entry %q", ErrBadFormat, name)
		}
		rank := len(l.Dims) / 4
		shape := shapes[:rank:rank]
		shapes = shapes[rank:]
		for d := range shape {
			shape[d] = int(binary.LittleEndian.Uint32(l.Dims[4*d:]))
		}
		// Decode into a pool-backed buffer: metadata-partition tensors then
		// follow the same recycle discipline as the lossy partition's.
		n := len(l.Vals) / 4
		vals := sched.GetFloats(n)[:n]
		for j := range vals {
			vals[j] = math.Float32frombits(binary.LittleEndian.Uint32(l.Vals[4*j:]))
		}
		tensors[i] = Tensor{Shape: shape, Data: vals}
		sd.entries[i] = Entry{Name: name, Kind: l.Kind, Tensor: &tensors[i]}
		sd.byName[name] = i
	}
	return sd, nil
}
