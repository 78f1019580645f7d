package sz3_test

import (
	"math/rand/v2"
	"testing"

	"repro/internal/ebcl"
	"repro/internal/eblctest"
	"repro/internal/sz3"
)

func TestConformance(t *testing.T) {
	eblctest.RunConformance(t, sz3.NewCompressor(), eblctest.Options{
		StrictBound:   true,
		MinRatioAt1e2: 5,
	})
}

func TestSmoothDataFavoursInterpolation(t *testing.T) {
	// SZ3's raison d'être: on smooth data its interpolation predictor
	// should deliver strong ratios at a loose bound.
	rng := rand.New(rand.NewPCG(8, 8))
	data := eblctest.SmoothLike(rng, 1<<16)
	c := sz3.NewCompressor()
	stream, err := c.CompressAppend(nil, data, ebcl.Rel(1e-2))
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(4*len(data)) / float64(len(stream))
	if ratio < 8 {
		t.Errorf("smooth-data ratio %.2f, want >= 8", ratio)
	}
}

func TestReconstructionDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	data := eblctest.WeightLike(rng, 10000)
	c := sz3.NewCompressor()
	s1, err := c.CompressAppend(nil, data, ebcl.Rel(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.CompressAppend(nil, data, ebcl.Rel(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != len(s2) {
		t.Fatal("compression is not deterministic")
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("compression is not deterministic")
		}
	}
}

func BenchmarkCompress1e2(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	data := eblctest.WeightLike(rng, 1<<20)
	c := sz3.NewCompressor()
	b.SetBytes(int64(4 * len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.CompressAppend(nil, data, ebcl.Rel(1e-2)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompress1e2(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	data := eblctest.WeightLike(rng, 1<<20)
	c := sz3.NewCompressor()
	stream, err := c.CompressAppend(nil, data, ebcl.Rel(1e-2))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.DecompressFinite(nil, stream); err != nil {
			b.Fatal(err)
		}
	}
}
