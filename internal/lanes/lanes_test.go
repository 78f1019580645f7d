package lanes

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// TestBothPaths checks the switch BothPaths flips: the kernels' call (when
// this CPU has them) sees On, the Go loops' call does not, and On is back
// afterwards, also when a call leaves by a panic.
func TestBothPaths(t *testing.T) {
	was := On()
	var paths []string
	BothPaths(func(path string) {
		if On() != (path == "kernels") {
			t.Fatalf("On() is %v on the %s path", On(), path)
		}
		paths = append(paths, path)
	})
	if want := map[bool]int{true: 2, false: 1}[was]; len(paths) != want || paths[len(paths)-1] != "Go" {
		t.Fatalf("paths %v, want %d ending in Go", paths, want)
	}
	func() {
		defer func() { recover() }()
		BothPaths(func(path string) {
			if path == "Go" {
				panic("check failed")
			}
		})
	}()
	if On() != was {
		t.Fatalf("On() is %v after BothPaths, was %v", On(), was)
	}
}

// withinRef is the Go loop Within is held to: the constant-residual check as
// it ran before the kernel.
func withinRef(data, ref []float32, mid float32, eb float64) bool {
	for i, v := range data {
		if math.Abs(float64(v)-float64(float32(ref[i]+mid))) > eb {
			return false
		}
	}
	return true
}

// probes are the indexes a test plants one element at for length n: 0, 7, 8,
// the last element of the last whole lane and the last element, when n has
// them.
func probes(n int) []int {
	var ks []int
	for _, k := range []int{0, 7, 8, n&^7 - 1, n - 1} {
		if k >= 0 && k < n && (len(ks) == 0 || k > ks[len(ks)-1]) {
			ks = append(ks, k)
		}
	}
	return ks
}

// TestWithinKernel holds Within's verdict on both paths to withinRef and to
// the expected one, on every length 1–40 (every tail length, with and without
// whole lanes), with one element planted at each of probes: a miss fails; a
// difference of exactly eb passes and the same one against the float64 just
// under eb fails; ref + mid overflowing to ±Inf fails even against the
// largest bound; and a NaN in data passes, as the Go loop's > is false on it.
// computeResidual's finiteness gate keeps NaN out of every residual that
// reaches the check in the encoder.
func TestWithinKernel(t *testing.T) {
	const eb = 1e-3
	rng := rand.New(rand.NewPCG(33, 1))
	BothPaths(func(path string) {
		for n := 1; n <= 40; n++ {
			check := func(name string, data, ref []float32, mid float32, eb float64, want bool) {
				t.Helper()
				if got, loop := Within(data, ref, mid, eb), withinRef(data, ref, mid, eb); got != want || loop != want {
					t.Fatalf("%s: n=%d %s: Within %v, Go loop %v, want %v", path, n, name, got, loop, want)
				}
			}
			mid := float32(2e-4)
			data, ref := make([]float32, n), make([]float32, n)
			for i := range ref {
				ref[i] = float32(rng.NormFloat64())
				data[i] = ref[i] + mid + float32(eb/2*(2*rng.Float64()-1))
			}
			check("in bound", data, ref, mid, eb, true)
			for _, k := range probes(n) {
				keep := data[k]
				recon := float64(ref[k] + mid)
				data[k] = ref[k] + mid + 4*eb
				check(fmt.Sprintf("miss at %d", k), data, ref, mid, eb, false)
				data[k] = ref[k] + mid - 0.9*eb
				worst := math.Abs(float64(data[k]) - recon)
				check(fmt.Sprintf("|diff| == eb at %d", k), data, ref, mid, worst, true)
				check(fmt.Sprintf("|diff| one ulp over eb at %d", k), data, ref, mid, math.Nextafter(worst, 0), false)
				data[k] = float32(math.NaN())
				check(fmt.Sprintf("NaN data at %d", k), data, ref, mid, eb, true)
				data[k] = keep
			}

			// Every other element reconstructs exactly, and ref[k] + mid
			// overflows: MaxFloat32 plus half its ulp rounds to Inf.
			for _, s := range []float32{1, -1} {
				mid := s * 0x1p103
				data, ref := make([]float32, n), make([]float32, n)
				for i := range data {
					data[i] = mid
				}
				check(fmt.Sprintf("exact, mid %g", mid), data, ref, mid, 0, true)
				for _, k := range probes(n) {
					ref[k], data[k] = s*math.MaxFloat32, s*math.MaxFloat32
					check(fmt.Sprintf("ref + mid overflows at %d, mid %g", k, mid), data, ref, mid, math.MaxFloat64, false)
					ref[k], data[k] = 0, mid
				}
			}
		}
	})
}

// TestOffsetKernel holds Offset on both paths to filling v and then calling
// Add, bit for bit, on every length 0–40 at every float offset within a
// 32-byte line, with nothing around dst written. v and ref are ordinary
// values, and the NaN rows plant a NaN in ref, make v a NaN, or both with
// different payloads.
func TestOffsetKernel(t *testing.T) {
	nanA, nanB := math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00abc)
	nanS := math.Float32frombits(0x7f800123) // signalling: a sum carries it quieted
	rng := rand.New(rand.NewPCG(33, 2))
	BothPaths(func(path string) {
		for n := 0; n <= 40; n++ {
			for off := 0; off < 8; off++ {
				ref := make([]float32, n)
				for i := range ref {
					ref[i] = float32(rng.NormFloat64())
				}
				for _, row := range []struct {
					name   string
					v, nan float32 // nan, when a NaN, lands in ref at every probe
				}{
					{"finite", float32(rng.NormFloat64()), 0},
					{"ref NaN", 0.25, nanA},
					{"v NaN", nanB, 0},
					{"both NaN", nanB, nanS},
					{"both NaN, other payloads", nanS, nanA},
				} {
					ref := append([]float32(nil), ref...)
					if row.nan != 0 {
						for _, k := range probes(n) {
							ref[k] = row.nan
						}
					}
					got, want := make([]float32, off+n+8), make([]float32, off+n+8)
					for i := range got {
						got[i], want[i] = -1, -1
					}
					for i := range n {
						want[off+i] = row.v
					}
					Add(want[off:off+n], ref)
					Offset(got[off:off+n], ref, row.v)
					for i := range got {
						g, w := math.Float32bits(got[i]), math.Float32bits(want[i])
						if path == "Go" && g != w && i >= off && i < off+n && ref[i-off] != ref[i-off] && row.v != row.v {
							// Which NaN's payload a Go sum keeps is the
							// compiler's operand order, which two loops need
							// not share (on 386 they differ); the kernels and
							// amd64's Go loops take ref first.
							if g != math.Float32bits(ref[i-off])|1<<22 && g != math.Float32bits(row.v)|1<<22 {
								t.Fatalf("%s: n=%d off=%d %s: dst[%d] is %#08x, neither operand's payload", path, n, off, row.name, i-off, g)
							}
							continue
						}
						if g != w {
							t.Fatalf("%s: n=%d off=%d %s: buf[%d] is %#08x, fill and Add %#08x", path, n, off, row.name, i, g, w)
						}
					}
				}
			}
		}
	})
}

// scaleRef is the Go loop Scale is held to.
func scaleRef(dst, src []float32, w float32) {
	for i, v := range src {
		dst[i] = v * w
	}
}

// scaleValues mixes ordinary values with the ones whose rounding or
// propagation a lane could get wrong: signed zeros, infinities, quiet and
// signalling NaNs with distinct payloads (the payload a product keeps shows
// which operand it came from), subnormals, and values whose product
// overflows or underflows.
func scaleValues(rng *rand.Rand, n int) []float32 {
	special := []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00abc),
		math.Float32frombits(0x7f800123), // signalling: the product is its quiet form
		math.Float32frombits(1), math.Float32frombits(0x807fffff),
		math.MaxFloat32, -math.MaxFloat32, 1e-30, 3e38,
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

// TestScaleKernel holds Scale on both paths to the Go loop bit for bit: every
// length 0–67 (no lanes, whole lanes, and every tail), dst and src starting
// at every float offset within a 32-byte line, out of place and in place,
// and weights that are ordinary, zero, negative, infinite, a NaN with a
// payload, subnormal or large enough to overflow.
func TestScaleKernel(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 3))
	weights := []float32{1, 1.0 / 3, -3, 0, float32(math.Copysign(0, -1)), float32(math.Inf(1)),
		math.Float32frombits(0x7fc0beef), math.Float32frombits(3), 1e30}
	BothPaths(func(path string) {
		for n := 0; n <= 67; n++ {
			for off := 0; off < 8; off++ {
				for _, w := range weights {
					srcBuf := scaleValues(rng, n+(7-off))
					src := srcBuf[7-off:]
					want := make([]float32, n)
					scaleRef(want, src, w)
					check := func(how string, got []float32) {
						t.Helper()
						for i := range want {
							if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
								t.Fatalf("%s: %s n=%d off=%d w=%g: element %d is %#08x, Go loop %#08x",
									path, how, n, off, w, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
							}
						}
					}
					dst := make([]float32, off+n)[off:]
					Scale(dst, src, w)
					check("out of place", dst)
					Scale(src, src, w)
					check("in place", src)
				}
			}
		}
	})
}

// TestScaleLeavesTheRest checks the kernel writes only dst's elements: the
// floats around a subslice keep their values.
func TestScaleLeavesTheRest(t *testing.T) {
	BothPaths(func(path string) {
		for n := 0; n <= 35; n++ {
			buf := make([]float32, n+16)
			for i := range buf {
				buf[i] = float32(i)
			}
			src := make([]float32, n)
			for i := range src {
				src[i] = 1
			}
			Scale(buf[8:8+n], src, 2)
			for i, v := range buf {
				want := float32(i)
				if i >= 8 && i < 8+n {
					want = 2
				}
				if v != want {
					t.Fatalf("%s: n=%d: buf[%d] = %g, want %g", path, n, i, v, want)
				}
			}
		}
	})
}

// TestAddScaledOffsetKernel holds AddScaledOffset on both paths to Offset
// into a buffer followed by AddScaled from it, bit for bit: every length 0–67
// with a and ref starting at every float offset within a 32-byte line,
// weights that are ordinary, signed zeros or infinite, constants that are
// signed zeros, small, a NaN with a payload, infinite or large enough for
// the sum to overflow, and references and accumulators holding signed zeros,
// infinities, quiet and signalling NaNs and subnormals (scaleValues). Where
// the Go loop runs (every element on the Go path, the tail past the last
// whole lane on the kernels') a NaN sum of two NaNs may keep either's
// payload: see TestOffsetKernel.
func TestAddScaledOffsetKernel(t *testing.T) {
	rng := rand.New(rand.NewPCG(44, 1))
	weights := []float32{1, 1.0 / 3, -3, 0, float32(math.Copysign(0, -1)), float32(math.Inf(1))}
	consts := []float32{0, float32(math.Copysign(0, -1)), 1e-3, math.Float32frombits(0x7fc0beef),
		float32(math.Inf(1)), 3e38}
	BothPaths(func(path string) {
		for n := 0; n <= 67; n++ {
			for off := 0; off < 8; off++ {
				for _, w := range weights {
					for _, v := range consts {
						refBuf := scaleValues(rng, n+(7-off))
						ref := refBuf[7-off:]
						got := scaleValues(rng, off+n)[off:]
						want := append([]float32(nil), got...)
						tmp := make([]float32, n)
						Offset(tmp, ref, v)
						AddScaled(want, tmp, w)
						AddScaledOffset(got, ref, v, w)
						goLoop := 0
						if path == "kernels" {
							goLoop = n &^ 7
						}
						for i := range want {
							g, wb := math.Float32bits(got[i]), math.Float32bits(want[i])
							if g != wb && !(i >= goLoop && got[i] != got[i] && want[i] != want[i]) {
								t.Fatalf("%s: n=%d off=%d w=%g v=%g: a[%d] is %#08x, Offset and AddScaled %#08x (ref %#08x)",
									path, n, off, w, v, i, g, wb, math.Float32bits(ref[i]))
							}
						}
					}
				}
			}
		}
	})
}
