package zfp

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/ebcl"
	"repro/internal/eblctest"
)

func TestConformance(t *testing.T) {
	eblctest.RunConformance(t, NewCompressor(), eblctest.Options{
		// ZFP fixed-precision has no hard bound (paper §V-D1); allow slack.
		StrictBound:   false,
		LooseFactor:   8,
		MinRatioAt1e2: 2,
	})
}

func TestLiftNearInverse(t *testing.T) {
	// ZFP's forward/inverse lifts are a biorthogonal pair, exact only up to
	// a few units of integer rounding (the codec is near-lossless by
	// design, not lossless). Assert the reconstruction error is a handful
	// of ULPs at the 2^30 fixed-point scale.
	f := func(a, b, c, d int32) bool {
		mask := int32(1<<28 - 1) // headroom for the transform's range gain
		in := [4]int32{a % mask, b % mask, c % mask, d % mask}
		p := in
		fwdLift(&p)
		invLift(&p)
		for i := range p {
			diff := int64(p[i]) - int64(in[i])
			if diff < -8 || diff > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestNegabinaryRoundTrip(t *testing.T) {
	f := func(x int32) bool { return fromNegabinary(negabinary(x)) == x }
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	// Magnitude ordering: larger |x| should set higher bit planes.
	if bitlen(negabinary(0)) >= bitlen(negabinary(1000)) {
		t.Error("negabinary should grow with magnitude")
	}
}

func bitlen(u uint32) int {
	n := 0
	for u != 0 {
		u >>= 1
		n++
	}
	return n
}

func TestFullPrecisionNearLossless(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 3))
	data := eblctest.SmoothLike(rng, 1024)
	c := NewCompressor()
	stream, err := c.CompressAppend(nil, data, ebcl.Precision(32))
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := c.DecompressFinite(nil, stream)
	if err != nil {
		t.Fatal(err)
	}
	// With all 32 planes the only loss is the block-float conversion.
	if got := ebcl.MaxAbsError(data, out); got > 1e-5 {
		t.Fatalf("near-lossless reconstruction error %g", got)
	}
}

func TestPrecisionControlsRatioAndError(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 5))
	data := eblctest.SmoothLike(rng, 1<<14)
	c := NewCompressor()
	var prevErr float64 = math.Inf(1)
	var prevLen int
	for _, prec := range []int{6, 10, 14, 18} {
		stream, err := c.CompressAppend(nil, data, ebcl.Precision(prec))
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := c.DecompressFinite(nil, stream)
		if err != nil {
			t.Fatal(err)
		}
		e := ebcl.MaxAbsError(data, out)
		// More planes must not make things meaningfully worse; near the
		// lifting-rounding noise floor small wiggle is expected.
		if e > prevErr*1.05+1e-7 {
			t.Errorf("precision %d error %g worse than previous %g", prec, e, prevErr)
		}
		if prevLen > 0 && len(stream) < prevLen {
			t.Errorf("precision %d stream smaller than lower precision", prec)
		}
		prevErr, prevLen = e, len(stream)
	}
}

func TestPrecisionForBound(t *testing.T) {
	if PrecisionForBound(1e-2) >= PrecisionForBound(1e-4) {
		t.Error("tighter bound must map to more planes")
	}
	if p := PrecisionForBound(0); p != maxPlanes {
		t.Errorf("zero bound → %d planes, want max", p)
	}
	if p := PrecisionForBound(1); p < 2 {
		t.Errorf("huge bound → %d planes, want >= 2", p)
	}
}

func TestAllZeroBlocksAreTiny(t *testing.T) {
	data := make([]float32, 4096)
	c := NewCompressor()
	stream, err := c.CompressAppend(nil, data, ebcl.Precision(16))
	if err != nil {
		t.Fatal(err)
	}
	// 1 flag bit per block + header.
	if len(stream) > 4096/4/8+32 {
		t.Errorf("zero data stream is %d bytes", len(stream))
	}
	out, _, err := c.DecompressFinite(nil, stream)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func BenchmarkCompressPrec8(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	data := eblctest.WeightLike(rng, 1<<20)
	c := NewCompressor()
	b.SetBytes(int64(4 * len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.CompressAppend(nil, data, ebcl.Precision(8)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNonFiniteRoundTripsAsLiterals(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	data := eblctest.WeightLike(rng, 4096)
	// Poison values across block positions, including a partial tail block.
	data = append(data, 0.5, float32(math.NaN()))
	data[0] = float32(math.NaN())
	data[17] = float32(math.Inf(1))
	data[18] = 0.25 // finite neighbour inside a poisoned block
	data[4095] = float32(math.Inf(-1))

	c := NewCompressor()
	for _, p := range []ebcl.Params{ebcl.Abs(1e-3), ebcl.Precision(12)} {
		stream, err := c.CompressAppend(nil, data, p)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		out, _, err := c.DecompressFinite(nil, stream)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if len(out) != len(data) {
			t.Fatalf("%v: length %d != %d", p, len(out), len(data))
		}
		for i, v := range data {
			f := float64(v)
			if math.IsNaN(f) || math.IsInf(f, 0) {
				if math.Float32bits(out[i]) != math.Float32bits(v) {
					t.Fatalf("%v: non-finite value at %d not bit-exact: % x -> % x",
						p, i, math.Float32bits(v), math.Float32bits(out[i]))
				}
			}
		}
		// Finite values sharing a block with NaN/Inf are stored losslessly.
		for _, i := range []int{1, 2, 3, 16, 18, 19, 4092, 4093, 4094, 4096} {
			if math.Float32bits(out[i]) != math.Float32bits(data[i]) {
				t.Fatalf("%v: finite neighbour at %d not bit-exact: %g -> %g", p, i, data[i], out[i])
			}
		}
	}
}

func TestNaNOnlyBlockDoesNotClampToZero(t *testing.T) {
	// Regression: the old encoder's maxAbs scan saw NaN comparisons as
	// false and emitted an all-zero block for NaN-only input.
	data := []float32{float32(math.NaN()), float32(math.NaN()), float32(math.NaN()), float32(math.NaN()), 1, 2, 3, 4}
	c := NewCompressor()
	stream, err := c.CompressAppend(nil, data, ebcl.Abs(1e-4))
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := c.DecompressFinite(nil, stream)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if !math.IsNaN(float64(out[i])) {
			t.Fatalf("NaN at %d decoded as %g", i, out[i])
		}
	}
}
