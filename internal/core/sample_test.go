package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync/atomic"
	"testing"

	"repro/internal/compressors"
	"repro/internal/ebcl"
	"repro/internal/lanes"
	"repro/internal/tensor"
)

// laplaceTensor draws n Laplace(0.06) values cut at ±0.72 — the weight
// distribution the paper's Fig. 3 reports — and a reference that trails it by
// Gaussian noise of deviation sigma, so data − ref has that deviation.
func laplaceTensor(rng *rand.Rand, n int, sigma float64) (data, ref *tensor.Tensor) {
	data, ref = tensor.New(n), tensor.New(n)
	for i := range data.Data {
		v := 0.06 * (rng.ExpFloat64() - rng.ExpFloat64())
		data.Data[i] = float32(max(-0.72, min(0.72, v)))
		ref.Data[i] = data.Data[i] - float32(sigma*rng.NormFloat64())
	}
	return data, ref
}

// TestSampledPolicyAccuracy justifies sampleMinElems, sampleRun and
// sampleStride: across the residual-vs-absolute tie, for every SZ-family
// codec and tensor sizes on both sides of the chunk threshold, the candidate
// the sample picks is the one the exact both-ways encode would have kept, or
// the blob it keeps is within 1 % of the smaller one. The scaled sample is
// also what DeltaBytesSaved is estimated from, so its error is held to 2 %.
// At σ = 0.001 the residual fits the bound around its midpoint and must ship as
// the constant stream instead (encodeBlob's first form); σ = 0.004 is the
// smallest that still samples. The sweep runs on the delta kernels and again
// on the Go loops.
func TestSampledPolicyAccuracy(t *testing.T) {
	sigmas := []float64{0.001, 0.004, 0.005, 0.01, 0.02, 0.04, 0.06, 0.07, 0.08, 0.085, 0.09, 0.1, 0.105, 0.11, 0.13, 0.15}
	params := ebcl.Rel(1e-2)
	sizes := []int{40_000, 146_977, 600_000}
	if testing.Short() {
		// The smallest size is where the sample is noisiest; the others cost
		// 40 s under the race detector and run in the full suite.
		sizes = sizes[:1]
	}
	lanes.BothPaths(func(path string) {
		for _, codec := range []string{"sz2", "sz3", "szx"} {
			lossy, err := compressors.Get(codec)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range sizes {
				same, consts, worst, estLo, estHi := 0, 0, 0.0, math.Inf(1), math.Inf(-1)
				for si, sigma := range sigmas {
					data, ref := laplaceTensor(rand.New(rand.NewPCG(21, uint64(n+si))), n, sigma)
					sd, refSD := tensor.NewStateDict(), tensor.NewStateDict()
					sd.Add("w", tensor.KindWeight, data)
					refSD.Add("w", tensor.KindWeight, ref)
					opts := Options{Lossy: lossy, LossyParams: params}

					// The exact sizes: the absolute blob is the no-reference
					// stream's, the residual goes through the same writer and
					// resolved bound encodeBlob would give it.
					absStream, _, err := Compress(sd, opts)
					if err != nil {
						t.Fatal(err)
					}
					absLen := len(parseTensors(t, absStream)[0].Blob)
					wholeP, ok := absParams(data.Data, params, 0, false)
					if !ok {
						t.Fatal("REL bound did not resolve")
					}
					res := make([]float32, n)
					rangeD, resExt, mag, ok := computeResidual(res, data.Data, ref.Data)
					ebRes, fits := residualBound(wholeP.Value, mag)
					if !fits {
						t.Fatal("rounding allowance ate the bound")
					}
					resP := ebcl.Abs(ebRes)
					var resBlob []byte
					if chunks := chunkCount(n, chunkElemsOf(opts)); chunks > 1 {
						resBlob, err = appendChunkedBlob(nil, lossy, nil, res, resP, chunks)
					} else {
						resBlob, err = lossy.CompressAppend(nil, res, resP)
					}
					if err != nil {
						t.Fatal(err)
					}
					exactDelta := ok && resExt.Span() < rangeD && len(resBlob) <= absLen

					opts.Reference, opts.RefEpoch = refSD, 1
					stream, stats, err := Compress(sd, opts)
					if err != nil {
						t.Fatal(err)
					}
					pt := parseTensors(t, stream)[0]
					_, fitsMid := constantResidual(data.Data, ref.Data, resExt, mag, wholeP.Value)
					if constant := ok && resExt.Span() < rangeD && resExt.Span() <= 2*ebRes && fitsMid; constant || stats.ConstantResiduals > 0 {
						if !constant || !pt.Delta || len(pt.Blob) != 13 {
							t.Fatalf("%s n=%d σ=%g: constant residual %v, kept %d-byte blob (residual=%v, %d constant)",
								codec, n, sigma, constant, len(pt.Blob), pt.Delta, stats.ConstantResiduals)
						}
						consts++
						continue
					}
					if pt.Delta && len(pt.Blob) != len(resBlob) || !pt.Delta && len(pt.Blob) != absLen {
						t.Fatalf("%s n=%d σ=%g: kept blob is %d B, candidates are %d (absolute) and %d (residual)",
							codec, n, sigma, len(pt.Blob), absLen, len(resBlob))
					}
					cost := float64(len(pt.Blob))/float64(min(absLen, len(resBlob))) - 1
					worst = max(worst, cost)
					if pt.Delta == exactDelta {
						same++
					} else if cost > 0.01 {
						t.Errorf("%s n=%d σ=%g: sampled pick (residual=%v) keeps %d B, %.2f %% over the exact pick's %d B",
							codec, n, sigma, pt.Delta, len(pt.Blob), 100*cost, min(absLen, len(resBlob)))
					}
					if pt.Delta && stats.DeltaBytesSaved > 0 {
						est := float64(stats.DeltaBytesSaved+len(pt.Blob))/float64(absLen) - 1
						estLo, estHi = min(estLo, est), max(estHi, est)
						if math.Abs(est) > 0.02 {
							t.Errorf("%s n=%d σ=%g: absolute size estimated %.1f %% off (%d B vs %d B)",
								codec, n, sigma, 100*est, stats.DeltaBytesSaved+len(pt.Blob), absLen)
						}
					}
				}
				t.Logf("%s: %s n=%d: %d constant, %d/%d picks identical, worst kept-blob cost %.2f %%, absolute size estimated %+.1f…%+.1f %% off",
					path, codec, n, consts, same, len(sigmas)-consts, 100*worst, 100*estLo, 100*estHi)
			}
		}
	})
}

// countingCodec sums the elements handed to CompressAppend: the encode work
// of a stream as a count, which repeats exactly where a timing would not.
type countingCodec struct {
	ebcl.Compressor
	elems *atomic.Int64
}

func (c countingCodec) CompressAppend(dst []byte, data []float32, p ebcl.Params) ([]byte, error) {
	c.elems.Add(int64(len(data)))
	return c.Compressor.CompressAppend(dst, data, p)
}

// TestSampledPolicyWork pins what the sampled policy is for: a residual
// candidate above sampleMinElems costs one full encode plus two 1/8 samples
// (and their first runs once more), not two encodes; a cold reference costs one; a tensor under the threshold
// still costs two. Chunking regroups the same elements.
func TestSampledPolicyWork(t *testing.T) {
	sz2, err := compressors.Get("sz2")
	if err != nil {
		t.Fatal(err)
	}
	dict := func(tensors, n int, sigma float64) (sd, ref *tensor.StateDict) {
		rng := rand.New(rand.NewPCG(21, uint64(n)))
		sd, ref = tensor.NewStateDict(), tensor.NewStateDict()
		for i := 0; i < tensors; i++ {
			d, r := laplaceTensor(rng, n, sigma)
			sd.Add(fmt.Sprintf("w%d", i), tensor.KindWeight, d)
			ref.Add(fmt.Sprintf("w%d", i), tensor.KindWeight, r)
		}
		return sd, ref
	}
	big, bigWarm := dict(12, 146_977, 0.01)
	bigCold := tensor.NewStateDict()
	for _, e := range big.Entries() {
		c := tensor.New(e.Tensor.Shape...)
		for i, v := range e.Tensor.Data {
			c.Data[i] = -v
		}
		bigCold.Add(e.Name, e.Kind, c)
	}
	small, smallWarm := dict(12, sampleMinElems, 0.01)

	cases := []struct {
		name     string
		sd, ref  *tensor.StateDict
		min, max float64 // CompressAppend elements over lossy elements
	}{
		{"warm reference above the threshold", big, bigWarm, 1.2, 1.3},
		{"cold reference above the threshold", big, bigCold, 1, 1},
		{"warm reference at the threshold", small, smallWarm, 2, 2},
	}
	for _, tc := range cases {
		var totals []int64
		for _, chunkElems := range []int{-1, 2048} {
			var elems atomic.Int64
			_, stats, err := Compress(tc.sd, Options{
				Lossy: countingCodec{sz2, &elems}, LossyParams: ebcl.Rel(1e-2),
				ChunkElems: chunkElems, Reference: tc.ref, RefEpoch: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			x := float64(elems.Load()) / float64(stats.LossyRaw/4)
			if x < tc.min || x > tc.max {
				t.Errorf("%s, ChunkElems %d: %d elements encoded for %d lossy ones (%.3f×), want %g–%g×",
					tc.name, chunkElems, elems.Load(), stats.LossyRaw/4, x, tc.min, tc.max)
			}
			totals = append(totals, elems.Load())
		}
		if totals[0] != totals[1] {
			t.Errorf("%s: %d elements encoded unchunked, %d chunked", tc.name, totals[0], totals[1])
		}
	}
}
