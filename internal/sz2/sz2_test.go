package sz2_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/ebcl"
	"repro/internal/eblctest"
	"repro/internal/sz2"
)

func TestConformance(t *testing.T) {
	eblctest.RunConformance(t, sz2.NewCompressor(), eblctest.Options{
		StrictBound:   true,
		MinRatioAt1e2: 5,
	})
}

// TestLosslessStageKeepsReconstruction: the trailing stage never grows a
// stream, and the same stream with the stage undone (the payload stored raw
// behind mode 0) decodes to the same values. REL 1e-1 leaves the code blob
// under 2 bits an element, so the keep rule tries the stage.
func TestLosslessStageKeepsReconstruction(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	data := eblctest.WeightLike(rng, 1<<15)
	c := sz2.NewCompressor()
	staged, err := c.CompressAppend(nil, data, ebcl.Rel(1e-1))
	if err != nil {
		t.Fatal(err)
	}
	// The stage follows the common header (9) and the absolute bound (8).
	payload, _, err := ebcl.ReadLosslessStage(staged[17:])
	if err != nil {
		t.Fatal(err)
	}
	if staged[17] != 1 {
		t.Fatalf("stage mode %d: the stage did not run, nothing is compared", staged[17])
	}
	plain := append(append(append([]byte(nil), staged[:17]...), 0), payload...)
	if len(staged) > len(plain) {
		t.Errorf("lossless stage grew the stream: %d > %d", len(staged), len(plain))
	}
	op, err := c.DecompressInto(nil, plain)
	if err != nil {
		t.Fatal(err)
	}
	os, err := c.DecompressInto(nil, staged)
	if err != nil {
		t.Fatal(err)
	}
	for i := range op {
		if op[i] != os[i] {
			t.Fatalf("stage changed reconstruction at %d", i)
		}
	}
}

func TestRegressionBlocksChosenOnLinearData(t *testing.T) {
	// A strongly linear ramp with noise should engage the regression
	// predictor and still satisfy the bound.
	data := make([]float32, 4096)
	rng := rand.New(rand.NewPCG(5, 6))
	for i := range data {
		data[i] = float32(0.001*float64(i) + 0.0001*rng.NormFloat64())
	}
	c := sz2.NewCompressor()
	stream, err := c.CompressAppend(nil, data, ebcl.Rel(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.DecompressInto(nil, stream)
	if err != nil {
		t.Fatal(err)
	}
	ebAbs := 1e-3 * ebcl.ValueRange(data)
	if got := ebcl.MaxAbsError(data, out); got > ebAbs*(1+1e-6) {
		t.Fatalf("max error %g exceeds %g", got, ebAbs)
	}
	ratio := float64(4*len(data)) / float64(len(stream))
	if ratio < 8 {
		t.Errorf("linear data should compress well, got ratio %.2f", ratio)
	}
}

func TestNonFiniteValuesSurviveAsLiterals(t *testing.T) {
	data := []float32{0.5, float32(math.Inf(1)), -0.5, float32(math.NaN()), 0.25}
	c := sz2.NewCompressor()
	stream, err := c.CompressAppend(nil, data, ebcl.Abs(0.01))
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.DecompressInto(nil, stream)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(float64(out[1]), 1) {
		t.Errorf("Inf not preserved: %v", out[1])
	}
	if !math.IsNaN(float64(out[3])) {
		t.Errorf("NaN not preserved: %v", out[3])
	}
	for _, i := range []int{0, 2, 4} {
		if math.Abs(float64(out[i])-float64(data[i])) > 0.01 {
			t.Errorf("finite value %d off: %v vs %v", i, out[i], data[i])
		}
	}
}

func BenchmarkCompress1e2(b *testing.B) { benchCompress(b, 1e-2) }
func BenchmarkCompress1e4(b *testing.B) { benchCompress(b, 1e-4) }

func benchCompress(b *testing.B, eb float64) {
	rng := rand.New(rand.NewPCG(1, 2))
	data := eblctest.WeightLike(rng, 1<<20)
	c := sz2.NewCompressor()
	b.SetBytes(int64(4 * len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.CompressAppend(nil, data, ebcl.Rel(eb)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompress1e2(b *testing.B) { benchDecompress(b, 1e-2) }

// BenchmarkDecompress1e4 decodes a blob with escapes: weight-like data at
// REL 1e-4 spends most of the code alphabet and escapes its outliers.
func BenchmarkDecompress1e4(b *testing.B) { benchDecompress(b, 1e-4) }

func benchDecompress(b *testing.B, eb float64) {
	rng := rand.New(rand.NewPCG(1, 2))
	data := eblctest.WeightLike(rng, 1<<20)
	c := sz2.NewCompressor()
	stream, err := c.CompressAppend(nil, data, ebcl.Rel(eb))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecompressInto(nil, stream); err != nil {
			b.Fatal(err)
		}
	}
}
