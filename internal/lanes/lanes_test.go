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
