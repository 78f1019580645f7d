package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/compressors"
	"repro/internal/ebcl"
	"repro/internal/lanes"
	"repro/internal/tensor"
)

// residualRef is the scalar loop computeResidual ran before its kernel: Go's
// NaN-propagating min and max over data and the residual. The kernel is held
// to it, so the test does not depend on lanes.On.
func residualRef(res, data, ref []float32) (rangeData, rangeRes, mag float64, ok bool) {
	if len(data) == 0 {
		return 0, 0, 0, false
	}
	minD, maxD := data[0], data[0]
	r0 := data[0] - ref[0]
	minR, maxR := r0, r0
	for i, d := range data {
		r := d - ref[i]
		res[i] = r
		minD, maxD = min(minD, d), max(maxD, d)
		minR, maxR = min(minR, r), max(maxR, r)
	}
	rangeData = float64(maxD) - float64(minD)
	rangeRes = float64(maxR) - float64(minR)
	mag = float64(max(-minD, maxD)) + float64(max(-minR, maxR))
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	return rangeData, rangeRes, mag, finite(rangeData) && finite(rangeRes)
}

// addRef is lanes.Add's loop, the add-back a constant residual's decode is
// held to.
func addRef(data, ref []float32) {
	for i, r := range ref {
		data[i] += r
	}
}

var (
	negZero = float32(math.Copysign(0, -1))
	posInf  = float32(math.Inf(1))
	negInf  = float32(math.Inf(-1))
	// NaNs with distinct payloads, so the payload a NaN result keeps shows
	// which operand it came from; the last is signalling (a result is its
	// quiet form).
	nanA = math.Float32frombits(0x7fc00001)
	nanB = math.Float32frombits(0xffc00abc)
	nanS = math.Float32frombits(0x7f800123)
)

// finiteValue draws an ordinary value, a signed zero, a subnormal or a large
// one whose differences stay finite.
func finiteValue(rng *rand.Rand) float32 {
	special := []float32{0, negZero, math.Float32frombits(1), math.Float32frombits(0x807fffff),
		math.SmallestNonzeroFloat32, 1e-30, -1e30, 1e30}
	if rng.IntN(4) == 0 {
		return special[rng.IntN(len(special))]
	}
	return float32(rng.NormFloat64())
}

// anyValue also draws infinities, NaNs and values whose difference overflows.
func anyValue(rng *rand.Rand) float32 {
	special := []float32{posInf, negInf, nanA, nanB, nanS, math.MaxFloat32, -math.MaxFloat32}
	if rng.IntN(3) == 0 {
		return special[rng.IntN(len(special))]
	}
	return finiteValue(rng)
}

// residualCase is one data/ref pair for the kernel tests.
type residualCase struct {
	name      string
	data, ref []float32
}

// residualCases builds, for one length, arrays of every kind the kernel
// must agree on: finite values, signed zeros only, one value repeated, and
// finite arrays with one non-finite element or overflowing difference at
// each index (NaN in data or in ref, NaN in both, ±Inf, Inf − Inf,
// MaxFloat32 − (−MaxFloat32)), and arrays drawn from every value at once.
func residualCases(rng *rand.Rand, n int) []residualCase {
	fill := func(gen func() float32) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = gen()
		}
		return out
	}
	finite := func() float32 { return finiteValue(rng) }
	zero := func() float32 { return [2]float32{0, negZero}[rng.IntN(2)] }
	c := finiteValue(rng)
	cases := []residualCase{
		{"finite", fill(finite), fill(finite)},
		{"zeros", fill(zero), fill(zero)},
		{"constant", fill(func() float32 { return c }), fill(func() float32 { return c })},
		{"constant data", fill(func() float32 { return c }), fill(finite)},
		{"any", fill(func() float32 { return anyValue(rng) }), fill(func() float32 { return anyValue(rng) })},
	}
	specials := []struct {
		name   string
		d, r   float32
		inData bool // whether d replaces a data element (else only r replaces ref's)
		inRef  bool
	}{
		{"NaN in data", nanA, 0, true, false},
		{"sNaN in data", nanS, 0, true, false},
		{"NaN in ref", 0, nanB, false, true},
		{"NaN in both", nanA, nanB, true, true},
		{"+Inf in data", posInf, 0, true, false},
		{"-Inf in ref", 0, negInf, false, true},
		{"Inf - Inf", posInf, posInf, true, true},
		{"overflow", math.MaxFloat32, -math.MaxFloat32, true, true},
		{"negative overflow", -math.MaxFloat32, math.MaxFloat32, true, true},
	}
	for _, sp := range specials {
		for i := 0; i < n; i++ {
			data, ref := fill(finite), fill(finite)
			if sp.inData {
				data[i] = sp.d
			}
			if sp.inRef {
				ref[i] = sp.r
			}
			cases = append(cases, residualCase{sp.name, data, ref})
		}
	}
	return cases
}

// classify reports how an array's range must read when it is not finite:
// NaN when it holds a NaN, +Inf when it holds an infinity.
func classify(vals []float32) (nan, inf bool) {
	for _, v := range vals {
		f := float64(v)
		nan = nan || math.IsNaN(f)
		inf = inf || math.IsInf(f, 0)
	}
	return nan, inf
}

// TestResidualKernel pins computeResidual on both paths to the scalar loop it
// replaced: every length 0–67 (no lanes, whole lanes, and every tail), the
// three slices starting at different float offsets within a 32-byte line,
// and every kind of array residualCases builds. res must match bit for bit,
// NaN payloads included, and ok on every input; on finite input the two
// ranges must match bit for bit and mag in value (a zero's sign may differ).
// On non-finite input each range is NaN when its array holds a NaN and +Inf
// when it holds an infinity.
func TestResidualKernel(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 1))
	lanes.BothPaths(func(path string) {
		for n := 0; n <= 67; n++ {
			for _, tc := range residualCases(rng, n) {
				off := rng.IntN(8)
				dataBuf := append(make([]float32, off), tc.data...)
				refBuf := append(make([]float32, (off+3)%8), tc.ref...)
				resBuf := make([]float32, (off+5)%8+n)
				data, ref, res := dataBuf[off:], refBuf[(off+3)%8:], resBuf[(off+5)%8:]
				want := make([]float32, n)
				wantD, wantR, wantMag, wantOK := residualRef(want, tc.data, tc.ref)
				gotD, gotExt, gotMag, gotOK := computeResidual(res, data, ref)
				gotR := gotExt.Span()
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("%s: n=%d %s: "+format, append([]any{path, n, tc.name}, args...)...)
				}
				for i := range want {
					if math.Float32bits(res[i]) != math.Float32bits(want[i]) {
						fail("res[%d] is %#08x, Go loop %#08x", i, math.Float32bits(res[i]), math.Float32bits(want[i]))
					}
				}
				if gotOK != wantOK {
					fail("ok %v, Go loop %v", gotOK, wantOK)
				}
				if wantOK {
					if math.Float64bits(gotD) != math.Float64bits(wantD) || math.Float64bits(gotR) != math.Float64bits(wantR) {
						fail("ranges %g, %g; Go loop %g, %g", gotD, gotR, wantD, wantR)
					}
					if gotMag != wantMag {
						fail("mag %g, Go loop %g", gotMag, wantMag)
					}
					continue
				}
				for _, a := range []struct {
					name string
					got  float64
					vals []float32
				}{{"data", gotD, data}, {"res", gotR, res}} {
					switch nan, inf := classify(a.vals); {
					case nan && !math.IsNaN(a.got), !nan && inf && !math.IsInf(a.got, 1),
						!nan && !inf && (math.IsNaN(a.got) || math.IsInf(a.got, 0)):
						fail("%s range %g for an array with NaN %v, Inf %v", a.name, a.got, nan, inf)
					}
				}
			}
		}
	})
}

// TestResidualKernelWritesOnlyRes checks the residual pass writes res's
// elements and nothing around them, and leaves data and ref as they were.
func TestResidualKernelWritesOnlyRes(t *testing.T) {
	lanes.BothPaths(func(path string) {
		for n := 1; n <= 35; n++ {
			buf := make([]float32, n+16)
			for i := range buf {
				buf[i] = -1
			}
			data, ref := make([]float32, n), make([]float32, n)
			for i := range data {
				data[i], ref[i] = float32(3*i), float32(i)
			}
			computeResidual(buf[8:8+n], data, ref)
			for i, v := range buf {
				want := float32(-1)
				if i >= 8 && i < 8+n {
					want = float32(2 * (i - 8))
				}
				if v != want {
					t.Fatalf("%s: n=%d: buf[%d] = %g, want %g", path, n, i, v, want)
				}
			}
			for i := range data {
				if data[i] != float32(3*i) || ref[i] != float32(i) {
					t.Fatalf("%s: n=%d: input %d changed", path, n, i)
				}
			}
		}
	})
}

func bothNaN(a, b float32) bool { return a != a && b != b }

// quiet is a NaN's bits as an arithmetic result carries them.
func quiet(nan float32) uint32 { return math.Float32bits(nan) | 1<<22 }

// constantStream is a one-tensor v3 stream under lossy whose tensor "w", of
// n elements and encoded against epoch 1, is a residual section carrying blob.
func constantStream(t *testing.T, lossy ebcl.Compressor, n int, blob []byte) []byte {
	t.Helper()
	sd, zero := tensor.NewStateDict(), tensor.NewStateDict()
	sd.Add("w", tensor.KindWeight, tensor.New(n))
	zero.Add("w", tensor.KindWeight, tensor.New(n))
	stream, _, err := CompressWith(context.Background(), nil, sd,
		Options{Lossy: lossy, DisablePartitioning: true, Reference: zero, RefEpoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	secs, err := Sections(stream)
	if err != nil {
		t.Fatal(err)
	}
	mode := 1 + len("w") + 2 + 4 // name, kind, rank, one dim: the mode byte
	out := append(bytes.Clone(secs.Header), secs.Tensors[0][:mode]...)
	out = ebcl.AppendSection(append(out, sectionDelta), blob)
	return append(out, secs.Lossless...)
}

// TestConstantBlobDecode holds the constant-residual decode, on both paths
// and under each built-in codec, to the codec's DecompressFinite followed by
// lanes.Add. Through DecodeSections a constant section decodes to its
// constant form (no buffer, the value's bits, ref aliased), and StateDict
// writes it out with the same float bits as the codec path (NaN payloads in
// ref and in the constant included). constantBlob turns down a constant
// stream without a reference and the hostile streams — count ≠ elems,
// truncated to 12 bytes, a wrong magic, a count over MaxElements — which
// reach the codec and fail there.
func TestConstantBlobDecode(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(33, 3))
	for _, name := range []string{"sz2", "sz3", "szx", "zfp"} {
		lossy, err := compressors.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		magic := lossy.Magic()
		lanes.BothPaths(func(path string) {
			for _, n := range []int{1, 7, 8, 13, 1000, 4099} {
				ref := make([]float32, n)
				for i := range ref {
					ref[i] = anyValue(rng)
				}
				refSD := tensor.NewStateDict()
				refSD.Add("w", tensor.KindWeight, tensor.FromData(ref, n))
				dopts := DecodeOptions{Reference: refSD, RefEpoch: 1}
				for _, v := range []float32{0.25, negZero, -1e-3, nanA, nanB, nanS} {
					for _, trail := range []int{0, 1} {
						blob := append(ebcl.AppendConstant(nil, magic, n, v), make([]byte, trail)...)
						label := fmt.Sprintf("%s %s: n=%d v=%g trail %d", path, name, n, v, trail)
						want, _, err := lossy.DecompressFinite(nil, blob)
						if err != nil {
							t.Fatalf("%s: codec: %v", label, err)
						}
						addRef(want, ref)
						d, _, err := DecodeSections(ctx, nil, &memSections{data: constantStream(t, lossy, n, blob)}, dopts)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						e := d.Tensors[0]
						if e.Data != nil || len(e.Ref) != n || &e.Ref[0] != &ref[0] || math.Float32bits(e.Const) != math.Float32bits(v) {
							t.Fatalf("%s: not the constant form: data %v, ref %d elements, const %#08x",
								label, e.Data != nil, len(e.Ref), math.Float32bits(e.Const))
						}
						got := d.StateDict().Get("w").Data
						for i := range want {
							g, w := math.Float32bits(got[i]), math.Float32bits(want[i])
							if path == "Go" && bothNaN(v, ref[i]) && g != w {
								// As in lanes' TestOffsetKernel: two Go loops may
								// keep different NaN payloads (on 386 they do).
								if g != quiet(v) && g != quiet(ref[i]) {
									t.Fatalf("%s: [%d] is %#08x, neither operand's payload", label, i, g)
								}
								continue
							}
							if g != w {
								t.Fatalf("%s: [%d] is %#08x, codec and Add %#08x", label, i, g, w)
							}
						}
					}
				}

				good := ebcl.AppendConstant(nil, magic, n, 0.5)
				over := append([]byte(nil), good...)
				binary.LittleEndian.PutUint32(over[4:], ebcl.MaxElements+1)
				for _, h := range []struct {
					name    string
					blob    []byte
					ref     []float32
					corrupt bool // the codec's own error, ebcl.ErrCorrupt
				}{
					{"no reference", good, nil, false},
					{"count elems+1", ebcl.AppendConstant(nil, magic, n+1, 0.5), ref, false},
					{"count elems-1", ebcl.AppendConstant(nil, magic, n-1, 0.5), ref, false},
					{"truncated to 12 bytes", good[:12], ref, true},
					{"wrong magic", ebcl.AppendConstant(nil, magic^1, n, 0.5), ref, true},
					{"count over MaxElements", over, ref, true},
				} {
					label := fmt.Sprintf("%s %s: n=%d %s", path, name, n, h.name)
					if _, ok := constantBlob(lossy, h.blob, n, true, h.ref); ok {
						t.Fatalf("%s: taken as a constant", label)
					}
					if h.ref == nil {
						continue
					}
					_, _, err := DecodeSections(ctx, nil, &memSections{data: constantStream(t, lossy, n, h.blob)}, dopts)
					if !errors.Is(err, ErrCorrupt) || h.corrupt && !errors.Is(err, ebcl.ErrCorrupt) {
						t.Fatalf("%s: error %v", label, err)
					}
				}
			}
		})
	}
}
