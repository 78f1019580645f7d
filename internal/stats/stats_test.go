package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

func laplaceSample(rng *rand.Rand, mu, b float64, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(mu + b*(rng.ExpFloat64()-rng.ExpFloat64()))
	}
	return out
}

func gaussSample(rng *rand.Rand, mu, sigma float64, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(mu + sigma*rng.NormFloat64())
	}
	return out
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float32{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(1.25)) > 1e-9 {
		t.Fatalf("std %v", s.Std)
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Fatal("empty summary should be zero")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float32{-1.5, -0.5, 0, 0.5, 2}, -1, 1, 4)
	// Bins: [-1,-0.5) [-0.5,0) [0,0.5) [0.5,1). -1.5 clamps into bin 0;
	// -0.5, 0, 0.5 land on left edges; 2 clamps into bin 3.
	want := []int{1, 1, 1, 2}
	for i := range want {
		if h.Counts[i] != want[i] {
			t.Fatalf("counts %v want %v", h.Counts, want)
		}
	}
}

func TestFitLaplaceRecoverParams(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	data := laplaceSample(rng, 0.3, 0.05, 50000)
	f := FitLaplace(data)
	if math.Abs(f.Mu-0.3) > 0.01 {
		t.Fatalf("mu %v want ~0.3", f.Mu)
	}
	if math.Abs(f.B-0.05) > 0.005 {
		t.Fatalf("b %v want ~0.05", f.B)
	}
}

func TestFitGaussianRecoverParams(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	data := gaussSample(rng, -1, 0.2, 50000)
	f := FitGaussian(data)
	if math.Abs(f.Mu+1) > 0.01 || math.Abs(f.Sigma-0.2) > 0.01 {
		t.Fatalf("fit %+v", f)
	}
}

func TestCDFProperties(t *testing.T) {
	l := LaplaceFit{Mu: 0, B: 1}
	if math.Abs(l.CDF(0)-0.5) > 1e-12 {
		t.Fatal("Laplace CDF(mu) != 0.5")
	}
	if l.CDF(-50) > 1e-9 || l.CDF(50) < 1-1e-9 {
		t.Fatal("Laplace CDF tails wrong")
	}
	g := GaussianFit{Mu: 0, Sigma: 1}
	if math.Abs(g.CDF(0)-0.5) > 1e-12 {
		t.Fatal("Gaussian CDF(mu) != 0.5")
	}
	// Monotonicity spot check.
	prev := -1.0
	for x := -3.0; x <= 3; x += 0.25 {
		c := g.CDF(x)
		if c < prev {
			t.Fatal("Gaussian CDF not monotone")
		}
		prev = c
	}
}

func TestKSDiscriminatesLaplaceFromGaussian(t *testing.T) {
	// The Figure 10 methodology: Laplace-distributed data must be closer
	// (in KS distance) to its Laplace fit than to its Gaussian fit.
	rng := rand.New(rand.NewPCG(5, 6))
	data := laplaceSample(rng, 0, 0.1, 20000)
	lf := FitLaplace(data)
	gf := FitGaussian(data)
	dl := KSDistance(data, lf.CDF)
	dg := KSDistance(data, gf.CDF)
	if dl >= dg {
		t.Fatalf("KS(laplace)=%.4f should beat KS(gauss)=%.4f on Laplacian data", dl, dg)
	}
	// And the reverse for Gaussian data.
	data = gaussSample(rng, 0, 0.1, 20000)
	lf = FitLaplace(data)
	gf = FitGaussian(data)
	dl = KSDistance(data, lf.CDF)
	dg = KSDistance(data, gf.CDF)
	if dg >= dl {
		t.Fatalf("KS(gauss)=%.4f should beat KS(laplace)=%.4f on Gaussian data", dg, dl)
	}
}

func TestKSPerfectFitIsSmall(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	data := gaussSample(rng, 0, 1, 10000)
	f := FitGaussian(data)
	if d := KSDistance(data, f.CDF); d > 0.02 {
		t.Fatalf("KS %v too large for a correct fit", d)
	}
}

func TestQuantile(t *testing.T) {
	data := []float32{1, 2, 3, 4, 5}
	if Quantile(data, 0) != 1 || Quantile(data, 1) != 5 {
		t.Fatal("extreme quantiles wrong")
	}
	if got := Quantile(data, 0.5); got != 3 {
		t.Fatalf("median %v", got)
	}
	if got := Quantile(data, 0.25); got != 2 {
		t.Fatalf("q25 %v", got)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}

func TestErrors(t *testing.T) {
	e := Errors([]float32{1, 2}, []float32{1.5, 1.5})
	if e[0] != 0.5 || e[1] != -0.5 {
		t.Fatalf("errors %v", e)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	Errors([]float32{1}, []float32{1, 2})
}
