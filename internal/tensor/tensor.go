// Package tensor provides the float32 tensor and model state-dictionary
// types shared by the neural-network substrate, the FedSZ compression
// pipeline, and the federated-learning layer.
//
// A StateDict is the Go analogue of a PyTorch state_dict(): an ordered
// collection of named tensors, each tagged with a Kind that the FedSZ
// partitioner uses to route tensors to the lossy or lossless path.
package tensor

import (
	"fmt"
	"math"

	"repro/internal/lanes"
	"repro/internal/sched"
)

// Kind classifies a state-dict entry for the FedSZ partitioning rule
// (paper Algorithm 1, line 4).
type Kind uint8

const (
	// KindWeight marks trainable dense weight tensors (conv kernels, dense
	// matrices) — the lossy-compressible bulk of a model.
	KindWeight Kind = iota
	// KindBias marks trainable bias vectors.
	KindBias
	// KindRunningStat marks batch-norm running means/variances and similar
	// non-trainable buffers that must survive exactly.
	KindRunningStat
	// KindScalarMeta marks scalar bookkeeping values (step counters,
	// num_batches_tracked, etc.).
	KindScalarMeta
)

// String returns the PyTorch-flavoured name of the kind.
func (k Kind) String() string {
	switch k {
	case KindWeight:
		return "weight"
	case KindBias:
		return "bias"
	case KindRunningStat:
		return "running_stat"
	case KindScalarMeta:
		return "scalar_meta"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Tensor is a dense float32 array with a shape. Data is stored row-major.
// The zero value is an empty tensor.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d", d))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromData wraps data (not copied) with a shape. The product of shape
// dimensions must equal len(data).
func FromData(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v wants %d elements, have %d", shape, n, len(data)))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// NumElems returns the number of elements.
func (t *Tensor) NumElems() int { return len(t.Data) }

// SizeBytes returns the storage footprint of the raw data in bytes.
func (t *Tensor) SizeBytes() int { return 4 * len(t.Data) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	d := make([]float32, len(t.Data))
	copy(d, t.Data)
	return &Tensor{Shape: append([]int(nil), t.Shape...), Data: d}
}

// Reshape returns a view with a new shape sharing the same backing data.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v", t.Shape, len(t.Data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Entry is one named tensor in a StateDict.
type Entry struct {
	Name   string
	Kind   Kind
	Tensor *Tensor
}

// StateDict is an ordered collection of named tensors. Order is significant:
// serialization, aggregation, and compression all iterate entries in
// insertion order, mirroring Python's ordered state_dict.
type StateDict struct {
	entries []Entry
	byName  map[string]int
}

// NewStateDict returns an empty state dict.
func NewStateDict() *StateDict {
	return &StateDict{byName: make(map[string]int)}
}

// Add appends a named tensor. It panics on duplicate names: state dicts are
// construction-time artifacts and duplicates indicate a model-definition bug.
func (sd *StateDict) Add(name string, kind Kind, t *Tensor) {
	if _, dup := sd.byName[name]; dup {
		panic(fmt.Sprintf("statedict: duplicate entry %q", name))
	}
	sd.byName[name] = len(sd.entries)
	sd.entries = append(sd.entries, Entry{Name: name, Kind: kind, Tensor: t})
}

// Get returns the tensor registered under name, or nil if absent.
func (sd *StateDict) Get(name string) *Tensor {
	if i, ok := sd.byName[name]; ok {
		return sd.entries[i].Tensor
	}
	return nil
}

// Entries returns the ordered entry list. The slice must not be mutated.
func (sd *StateDict) Entries() []Entry { return sd.entries }

// Len returns the number of entries.
func (sd *StateDict) Len() int { return len(sd.entries) }

// NumParams returns the total element count across all entries.
func (sd *StateDict) NumParams() int {
	n := 0
	for _, e := range sd.entries {
		n += e.Tensor.NumElems()
	}
	return n
}

// SizeBytes returns the total raw float32 payload size.
func (sd *StateDict) SizeBytes() int { return 4 * sd.NumParams() }

// Clone returns a deep copy of the state dict.
func (sd *StateDict) Clone() *StateDict {
	out := NewStateDict()
	for _, e := range sd.entries {
		out.Add(e.Name, e.Kind, e.Tensor.Clone())
	}
	return out
}

// Zero returns a same-shaped state dict with all values zeroed, preserving
// names and kinds — the accumulator shape used by FedAvg.
func (sd *StateDict) Zero() *StateDict {
	out := NewStateDict()
	for _, e := range sd.entries {
		out.Add(e.Name, e.Kind, New(e.Tensor.Shape...))
	}
	return out
}

// CloneInto is Clone reusing dst's storage when dst is structurally
// compatible with sd; otherwise the copy is built over pooled float32
// buffers (recycle via core.Release). Shapes are taken from sd when a new
// dict is built and left as dst's when reusing — compatibility only
// requires matching names and element counts.
func (sd *StateDict) CloneInto(dst *StateDict) *StateDict {
	if dst != nil && dst.CheckCompatible(sd) == nil {
		for i, e := range dst.entries {
			copy(e.Tensor.Data, sd.entries[i].Tensor.Data)
		}
		return dst
	}
	out := NewStateDict()
	for _, e := range sd.entries {
		n := e.Tensor.NumElems()
		buf := sched.GetFloats(n)[:n]
		copy(buf, e.Tensor.Data)
		out.Add(e.Name, e.Kind, FromData(buf, e.Tensor.Shape...))
	}
	return out
}

// AddScaled accumulates alpha * other into sd element-wise. The two dicts
// must have identical structure.
func (sd *StateDict) AddScaled(other *StateDict, alpha float32) error {
	if err := sd.CheckCompatible(other); err != nil {
		return err
	}
	for i, e := range sd.entries {
		lanes.AddScaled(e.Tensor.Data, other.entries[i].Tensor.Data, alpha)
	}
	return nil
}

// Scale multiplies every value by alpha in place, through lanes.Scale.
func (sd *StateDict) Scale(alpha float32) {
	for _, e := range sd.entries {
		lanes.Scale(e.Tensor.Data, e.Tensor.Data, alpha)
	}
}

// CheckCompatible reports whether other has the same structure as sd —
// matching entry count, names in order, and per-entry element counts — the
// precondition for every in-place accumulator operation.
func (sd *StateDict) CheckCompatible(other *StateDict) error {
	if len(sd.entries) != len(other.entries) {
		return fmt.Errorf("statedict: entry count mismatch %d != %d", len(sd.entries), len(other.entries))
	}
	for i, e := range sd.entries {
		o := other.entries[i]
		if e.Name != o.Name {
			return fmt.Errorf("statedict: entry %d name mismatch %q != %q", i, e.Name, o.Name)
		}
		if e.Tensor.NumElems() != o.Tensor.NumElems() {
			return fmt.Errorf("statedict: entry %q size mismatch %d != %d", e.Name, e.Tensor.NumElems(), o.Tensor.NumElems())
		}
	}
	return nil
}

// MaxAbsDiff returns the largest absolute element-wise difference between
// two structurally identical state dicts — the verification metric for
// error-bounded round trips.
func (sd *StateDict) MaxAbsDiff(other *StateDict) (float64, error) {
	if err := sd.CheckCompatible(other); err != nil {
		return 0, err
	}
	var m float64
	for i, e := range sd.entries {
		o := other.entries[i].Tensor.Data
		for j, v := range e.Tensor.Data {
			d := math.Abs(float64(v) - float64(o[j]))
			if d > m {
				m = d
			}
		}
	}
	return m, nil
}
