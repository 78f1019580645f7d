// Package ebcl defines the shared machinery for the error-bounded lossy
// compressors (EBLCs) evaluated by FedSZ: the Compressor interface, the one
// contract sz2, sz3, szx and zfp implement; error bound modes, the common
// stream header, the linear quantizer used by the prediction-based
// compressors (SZ2, SZ3) with the Tally its loops report, and the one back
// end that turns their quantization codes into a stream and back (Format,
// Sections), timing its stages and measuring each blob's utilization of its
// bound for the caller to record (Hold, StageTimers); verification helpers;
// and the one CPU check (AVX2) that selects the amd64 block kernels
// (kernels.go).
//
// Error bound semantics follow the SZ convention: a *relative* bound eb
// means the absolute reconstruction error of every element is at most
// eb × (max − min) of the input array. This global value-range
// interpretation is load-bearing for reproducing the paper: model weights
// cluster near zero inside a ±1 envelope, so a relative bound of 1e-2
// translates to a sizeable absolute bound around the near-zero mass.
package ebcl

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/lanes"
)

// Mode selects how the bound parameter is interpreted.
type Mode uint8

const (
	// ModeRelative bounds error by Value × (max − min) of the input.
	ModeRelative Mode = iota
	// ModeAbsolute bounds error by Value directly.
	ModeAbsolute
	// ModeFixedPrecision keeps int(Value) bit planes per value (ZFP's
	// closest analogue to a relative mode, per the paper §V-D1).
	ModeFixedPrecision
)

// String returns the mode's conventional name.
func (m Mode) String() string {
	switch m {
	case ModeRelative:
		return "REL"
	case ModeAbsolute:
		return "ABS"
	case ModeFixedPrecision:
		return "PREC"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Params carries the error-control configuration for one compression call.
type Params struct {
	Mode  Mode
	Value float64 // bound for REL/ABS; plane count for PREC

	held *Held // Hold
}

// Hold returns p with the observations of the blobs encoded under it kept
// in h, for the caller to record (Held.Record into the codec's StageTimers)
// once it knows which blob ships. A codec records nothing on its own, so
// blobs encoded under Params without Hold are never observed.
func Hold(p Params, h *Held) Params {
	p.held = h
	return p
}

// Rel is shorthand for a relative error bound.
func Rel(eb float64) Params { return Params{Mode: ModeRelative, Value: eb} }

// Abs is shorthand for an absolute error bound.
func Abs(eb float64) Params { return Params{Mode: ModeAbsolute, Value: eb} }

// Precision is shorthand for ZFP-style fixed precision.
func Precision(bits int) Params { return Params{Mode: ModeFixedPrecision, Value: float64(bits)} }

// ErrCorrupt is returned when a compressed stream fails validation.
var ErrCorrupt = errors.New("ebcl: corrupt compressed stream")

// PredictorBlockElems is the element granularity of the prediction-based
// compressors' internal structure: SZ2 partitions its input into blocks of
// exactly this many elements (per-block Lorenzo-vs-regression selection),
// and SZ3's interpolation levels are derived from the array length. The
// core pipeline's intra-tensor chunking (stream-format v4) aligns chunk
// boundaries to this grid so splitting a tensor never changes a block's
// predictor inputs — each chunk is then a complete, independently
// decodable stream of the same codec.
const PredictorBlockElems = 256

// Compressor is an error-bounded lossy compressor over 1-D float32 arrays
// (FL model updates are flattened before compression, paper Algorithm 1):
// the one contract the paper's four EBLCs (sz2, sz3, szx, zfp) implement and
// the core pipeline runs on, each method called directly.
//
// The contract is append/into-style so a steady-state pipeline never
// allocates at the lossy boundary: CompressAppend extends a caller-supplied
// (typically pool-recycled) byte buffer, and DecompressFinite reconstructs
// into a caller-supplied float32 buffer, which the core pipeline sizes from
// the tensor section's shape. The appended or reconstructed bytes must be
// identical regardless of dst's prior contents or capacity, and the result
// must alias neither the input nor any retained state — the caller may
// recycle both sides through the sched buffer pools. Implementations must
// be safe for concurrent use: the core pipeline encodes and decodes many
// tensors on one Compressor value in parallel. A nil dst asks for a fresh
// buffer on either side.
type Compressor interface {
	// Name returns the compressor's table name ("sz2", "sz3", ...), the
	// name a FedSZ stream carries.
	Name() string
	// Magic is the stream magic behind ebcl's common header, for a caller
	// that writes one of the codec's constant streams itself
	// (AppendConstant) or recognises one (ConstantOf).
	Magic() uint32
	// CompressAppend encodes data under the given error-control parameters,
	// appending the stream to dst (which may be nil) and returning the
	// extended slice, like append.
	CompressAppend(dst []byte, data []float32, p Params) ([]byte, error)
	// DecompressFinite reconstructs the (lossy) array into dst's storage: the
	// result has the stream's element count, reuses dst's backing array when
	// its capacity suffices (dst's length and prior contents are ignored),
	// and is freshly allocated otherwise. It also returns the largest
	// magnitude of the reconstruction, whose Finite reports that it holds no
	// NaN and no infinity without a pass over it. On error the returned
	// slice is nil and dst is unretained.
	DecompressFinite(dst []float32, stream []byte) ([]float32, lanes.AbsMax, error)
	// ResolvedBound reads back the absolute error bound a stream was encoded
	// under. ok is false for the empty and constant layouts, which record
	// none, and for a codec without a formal bound (zfp's fixed precision).
	ResolvedBound(stream []byte) (eb float64, ok bool)
	// StageTimers are the histograms the codec's stages are observed in
	// (an encode's when its caller records what it held, Held.Record), for
	// the caller that exports them; nil for a codec that times none (szx,
	// zfp).
	StageTimers() *StageTimers
}

// Filled is the largest magnitude of a reconstruction DecodeLayout finished
// by itself: empty, or copies of one value.
func Filled(out []float32) lanes.AbsMax {
	if len(out) == 0 {
		return 0
	}
	return lanes.AbsMax(0).With(out[0])
}

// GrowFloats returns a slice of length n backed by dst's array when
// cap(dst) >= n and freshly allocated otherwise — the dst-sizing step of
// every DecompressFinite implementation. Contents are unspecified; callers
// overwrite every element.
func GrowFloats(dst []float32, n int) []float32 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]float32, n)
}

// ValueRange returns max − min of data (0 for empty input), NaN when any
// element is NaN: the range is then undefined, wherever the NaN sits. With an
// infinity it is what the float subtraction gives: +Inf, or NaN when every
// element is the same infinity.
func ValueRange(data []float32) float64 {
	if len(data) == 0 {
		return 0
	}
	if e := lanes.Scan(data); !math.IsNaN(e.Span()) {
		return float64(e.Hi) - float64(e.Lo)
	}
	return math.NaN()
}

// ResolveAbs converts p into an absolute error bound for data. For
// ModeFixedPrecision it returns 0 (no formal bound).
func ResolveAbs(data []float32, p Params) (float64, error) {
	switch p.Mode {
	case ModeRelative:
		if p.Value <= 0 {
			return 0, fmt.Errorf("ebcl: relative bound must be positive, got %g", p.Value)
		}
		r := ValueRange(data)
		if math.IsNaN(r) || math.IsInf(r, 0) {
			// NaN/Inf in the data makes the value range — and therefore a
			// range-relative bound — undefined; the caller must use ABS.
			return 0, fmt.Errorf("ebcl: relative bound undefined for non-finite data (range %g); use an absolute bound", r)
		}
		return p.Value * r, nil
	case ModeAbsolute:
		if p.Value <= 0 {
			return 0, fmt.Errorf("ebcl: absolute bound must be positive, got %g", p.Value)
		}
		return p.Value, nil
	case ModeFixedPrecision:
		if p.Value < 1 || p.Value > 32 {
			return 0, fmt.Errorf("ebcl: precision must be in [1,32], got %g", p.Value)
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("ebcl: unknown mode %v", p.Mode)
	}
}

// MaxAbsError returns the largest |a[i]−b[i]|; the slices must be equal
// length.
func MaxAbsError(a, b []float32) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("ebcl: length mismatch %d != %d", len(a), len(b)))
	}
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d > m {
			m = d
		}
	}
	return m
}
