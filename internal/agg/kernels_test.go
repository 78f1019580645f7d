package agg

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/lanes"
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
