package agg

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/lanes"
	"repro/internal/tensor"
)

// foldRef is the Go loop lanes.AddScaled runs without the kernel, kept apart
// so the test does not depend on lanes.On.
func foldRef(a, b []float32, w float32) {
	for i := range a {
		a[i] += w * b[i]
	}
}

// foldValues mixes ordinary weights with the values whose rounding or
// propagation a lane could get wrong: signed zeros, infinities, NaNs with
// distinct payloads (so the payload a NaN result keeps shows which operand
// it came from), subnormals (the pair after the NaNs) and values whose
// product or sum overflows or underflows.
func foldValues(rng *rand.Rand, n int) []float32 {
	special := []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00abc),
		math.Float32frombits(0x7f800123), // signalling: the result is its quiet form
		math.Float32frombits(1), math.Float32frombits(0x807fffff),
		math.SmallestNonzeroFloat32, math.MaxFloat32, -math.MaxFloat32, 1e-30, 3e38,
	}
	out := make([]float32, n)
	for i := range out {
		if rng.IntN(3) == 0 {
			out[i] = special[rng.IntN(len(special))]
		} else {
			out[i] = float32(rng.NormFloat64())
		}
	}
	return out
}

// TestAddScaledKernel pins the fold kernel to the Go loop bit for bit: every
// length 0–67 (no lanes, whole lanes, and every tail), slices starting at
// every float offset within a 32-byte line, and weights that are ordinary,
// zero, negative, infinite, NaN or subnormal.
func TestAddScaledKernel(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 1))
	weights := []float32{1, 0.25, -3, 0, float32(math.Copysign(0, -1)), float32(math.Inf(1)),
		math.Float32frombits(0x7fc0beef), math.Float32frombits(3), 1e30}
	lanes.BothPaths(func(path string) {
		for n := 0; n <= 67; n++ {
			for off := 0; off < 8; off++ {
				for _, w := range weights {
					accBuf, srcBuf := foldValues(rng, off+n), foldValues(rng, n+(7-off))
					acc, src := accBuf[off:], srcBuf[7-off:]
					want := append([]float32(nil), acc...)
					foldRef(want, src, w)
					lanes.AddScaled(acc, src, w)
					for i := range want {
						if math.Float32bits(acc[i]) != math.Float32bits(want[i]) {
							t.Fatalf("%s: n=%d off=%d w=%g: element %d is %#08x, Go loop %#08x",
								path, n, off, w, i, math.Float32bits(acc[i]), math.Float32bits(want[i]))
						}
					}
				}
			}
		}
	})
}

// TestAddScaledLeavesTheRest checks the kernel writes only a's elements: the
// floats around a subslice keep their values.
func TestAddScaledLeavesTheRest(t *testing.T) {
	lanes.BothPaths(func(path string) {
		for n := 0; n <= 35; n++ {
			buf := make([]float32, n+16)
			for i := range buf {
				buf[i] = float32(i)
			}
			src := make([]float32, n)
			for i := range src {
				src[i] = 1
			}
			lanes.AddScaled(buf[8:8+n], src, 2)
			for i, v := range buf {
				want := float32(i)
				if i >= 8 && i < 8+n {
					want += 2
				}
				if v != want {
					t.Fatalf("%s: n=%d: buf[%d] = %g, want %g", path, n, i, v, want)
				}
			}
		}
	})
}

// TestFoldFromBytes holds the metadata partition's in-place fold and
// verdict to what they replace. addScaledBytes over a serialized dict must
// match tensor.UnmarshalStateDict then StateDict.AddScaled bit for bit on
// both lane paths: the partition's values are finite (nonFinite refuses the
// rest first) and so is the weight, but the accumulator holds foldValues'
// specials and the products overflow to ±Inf at the large weights.
// finiteBytes must give lanes.Scan's verdict on the specials too. Entries
// run 0–67 elements, every kernel tail.
func TestFoldFromBytes(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 7))
	src, acc, special := tensor.NewStateDict(), tensor.NewStateDict(), tensor.NewStateDict()
	for n := 0; n <= 67; n++ {
		name := fmt.Sprintf("e%02d", n)
		vals := foldValues(rng, n)
		special.Add(name, tensor.KindBias, tensor.FromData(vals, n))
		finite := make([]float32, n)
		for i, v := range vals {
			if finite[i] = v; math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				finite[i] = -math.MaxFloat32
			}
		}
		src.Add(name, tensor.KindBias, tensor.FromData(finite, n))
		acc.Add(name, tensor.KindBias, tensor.FromData(foldValues(rng, n), n))
	}
	entries := func(sd *tensor.StateDict) []tensor.EntryView {
		r, count, err := tensor.NewReader(sd.Marshal())
		if err != nil || int(count) != sd.Len() {
			t.Fatalf("reader: %v, count %d", err, count)
		}
		out := make([]tensor.EntryView, count)
		for i := range out {
			var ok bool
			if out[i], ok = r.Next(); !ok {
				t.Fatalf("entry %d does not delimit", i)
			}
		}
		return out
	}
	for i, v := range entries(special) {
		data := special.Entries()[i].Tensor.Data
		if want := len(data) == 0 || lanes.Scan(data).Finite(); finiteBytes(v.Vals) != want {
			t.Fatalf("entry %d: finiteBytes %v, lanes.Scan %v", i, !want, want)
		}
	}
	views := entries(src)
	dict, err := tensor.UnmarshalStateDict(src.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	lanes.BothPaths(func(path string) {
		for _, w := range []float32{1, 0.25, -3, 1e30, -3e38} {
			want, got := acc.Clone(), acc.Clone()
			if err := want.AddScaled(dict, w); err != nil {
				t.Fatal(err)
			}
			for i, e := range got.Entries() {
				addScaledBytes(e.Tensor.Data, views[i].Vals, w)
			}
			for i, e := range got.Entries() {
				for j, v := range e.Tensor.Data {
					if x := want.Entries()[i].Tensor.Data[j]; math.Float32bits(v) != math.Float32bits(x) {
						t.Fatalf("%s: w=%g: entry %d element %d is %#08x, AddScaled %#08x",
							path, w, i, j, math.Float32bits(v), math.Float32bits(x))
					}
				}
			}
		}
	})
}

// BenchmarkFoldConstant times the fold of one update whose tensors are all
// constant residuals, at delta_rounds' shape (12 tensors of 145,833 floats):
// lanes.AddScaledOffset straight from the reference, against writing each
// tensor out with lanes.Offset into a buffer of its own (as a decode task
// did) and folding that with lanes.AddScaled. MB/s counts the accumulator's
// bytes.
func BenchmarkFoldConstant(b *testing.B) {
	const layers, n = 12, 145_833
	rng := rand.New(rand.NewPCG(44, 3))
	acc, ref, tmp := make([][]float32, layers), make([][]float32, layers), make([][]float32, layers)
	for i := range layers {
		acc[i], ref[i], tmp[i] = make([]float32, n), make([]float32, n), make([]float32, n)
		for j := range n {
			acc[i][j], ref[i][j] = float32(rng.NormFloat64()), float32(rng.NormFloat64())
		}
	}
	const v, w = 1e-3, 1
	b.Run("AddScaledOffset", func(b *testing.B) {
		b.SetBytes(4 * layers * n)
		for range b.N {
			for i := range layers {
				lanes.AddScaledOffset(acc[i], ref[i], v, w)
			}
		}
	})
	b.Run("Offset+AddScaled", func(b *testing.B) {
		b.SetBytes(4 * layers * n)
		for range b.N {
			for i := range layers {
				lanes.Offset(tmp[i], ref[i], v)
				lanes.AddScaled(acc[i], tmp[i], w)
			}
		}
	})
}
