package szx_test

import (
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/ebcl"
	"repro/internal/eblctest"
	"repro/internal/sz2"
	"repro/internal/szx"
)

func TestConformance(t *testing.T) {
	eblctest.RunConformance(t, szx.NewCompressor(), eblctest.Options{
		StrictBound:   true,
		MinRatioAt1e2: 2,
	})
}

// TestTinyTruncationBlock regression-tests the pre-decode size guard: a
// single partial truncation block with k=0 encodes in just 1+5+9·n bits,
// which the previous ≥33-bits-per-block estimate rejected as corrupt.
func TestTinyTruncationBlock(t *testing.T) {
	data := []float32{-1.9, 1.9}
	c := szx.NewCompressor()
	enc, err := c.CompressAppend(nil, data, ebcl.Abs(1.0))
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := c.DecompressFinite(nil, enc)
	if err != nil {
		t.Fatalf("valid tiny truncation block rejected: %v", err)
	}
	if ebcl.MaxAbsError(data, dec) > 1.0 {
		t.Fatalf("reconstruction %v out of bound for %v", dec, data)
	}
}

func TestConstantBlockCollapse(t *testing.T) {
	// The paper's key SZx observation: under a range-relative bound, blocks
	// of small weights collapse to a single midpoint, erasing sign
	// structure. Construct data where the global range is dominated by two
	// outliers and verify the near-zero mass collapses.
	rng := rand.New(rand.NewPCG(6, 6))
	n := 4096
	data := make([]float32, n)
	for i := range data {
		data[i] = float32(0.005 * rng.NormFloat64()) // tiny weights
	}
	data[0], data[1] = 1, -1 // outliers set range to 2
	c := szx.NewCompressor()
	stream, err := c.CompressAppend(nil, data, ebcl.Rel(1e-2)) // ebAbs = 0.02
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := c.DecompressFinite(nil, stream)
	if err != nil {
		t.Fatal(err)
	}
	// Bound still holds...
	if got := ebcl.MaxAbsError(data, out); got > 0.02*(1+1e-6) {
		t.Fatalf("bound violated: %g", got)
	}
	// ...but sign structure is destroyed: many values changed sign.
	signFlips := 0
	for i := 2; i < n; i++ {
		if (data[i] > 0) != (out[i] > 0) && out[i] != data[i] {
			signFlips++
		}
	}
	if signFlips < n/10 {
		t.Errorf("expected widespread sign collapse, got %d flips of %d", signFlips, n)
	}
	// And the ratio is high because nearly every block went constant.
	ratio := float64(4*n) / float64(len(stream))
	if ratio < 20 {
		t.Errorf("collapsed data should compress hard, ratio %.2f", ratio)
	}
}

func TestSpeedSupremacy(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing comparison")
	}
	// SZx must be faster than SZ2 (paper Table I shows ~50x); assert a loose
	// 1.15x on each codec's quickest of twenty runs after one warm-up (which
	// pays for page faults and empty pools), taken alternately so a slow
	// spell on a shared machine lands on both. Twenty, not five: beside a
	// multi-threaded neighbour package, five ~7 ms szx runs can all be
	// preempted while one sz2 run is not. The paper's claim is the ordering;
	// the margin was 2x until sz2's quantize kernel went branch-free and
	// call-free (sz2 from ~3.1x szx's time to ~1.9x), then 1.3x until sz2's
	// block loops moved onto AVX2 lanes: with szx's block scan on the same
	// kernel, seven runs on a 2-vCPU Xeon read 1.31–1.45x. Huffman's BMI2
	// encode kernel then cut sz2's time again, and szx's truncation loop
	// moved to one store per two values: nine runs read 1.51–1.57x. sz2's
	// sampled Huffman count and predictor scores (blobs of 256 Ki elements
	// and up) then cut sz2's time here by ~12 %, which alone read 1.07x in one run;
	// szx's truncation loop went to three and four values a store and its
	// output to an exact size: nine runs read 1.31–1.53x.
	rng := rand.New(rand.NewPCG(9, 9))
	data := eblctest.WeightLike(rng, 1<<20)
	timed := func(c ebcl.Compressor, best time.Duration) time.Duration {
		t0 := time.Now()
		if _, err := c.CompressAppend(nil, data, ebcl.Rel(1e-2)); err != nil {
			t.Fatal(err)
		}
		return min(best, time.Since(t0))
	}
	cx, c2 := szx.NewCompressor(), sz2.NewCompressor()
	dx, d2 := time.Hour, time.Hour
	timed(cx, 0)
	timed(c2, 0)
	for range 20 {
		dx = timed(cx, dx)
		d2 = timed(c2, d2)
	}
	ratio := float64(d2) / float64(dx)
	t.Logf("szx=%v sz2=%v sz2/szx=%.2f", dx, d2, ratio)
	if ratio < 1.15 {
		t.Errorf("szx (%v) not at least 1.15x faster than sz2 (%v): %.2fx", dx, d2, ratio)
	}
}

func BenchmarkCompress1e2(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	data := eblctest.WeightLike(rng, 1<<20)
	c := szx.NewCompressor()
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
	c := szx.NewCompressor()
	stream, _ := c.CompressAppend(nil, data, ebcl.Rel(1e-2))
	b.SetBytes(int64(4 * len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.DecompressFinite(nil, stream); err != nil {
			b.Fatal(err)
		}
	}
}
