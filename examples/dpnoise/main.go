// Differential-privacy scenario (paper §VII-D) composed with the cross-round
// delta mode: a client adds calibrated Laplace noise to its update, then
// ships it as a residual against the broadcast global. The residual is the
// (small) SGD step plus the (small) DP noise, so the delta encoding keeps
// winning, and the lossy bound applies to the noised update — the
// mechanism's noise survives the round trip within the usual error contract.
//
// The paper's observation that FedSZ's own decompression error looks
// Laplacian (Fig. 10: Laplace and Gaussian fits, Kolmogorov–Smirnov
// distances) is an experiment of fedsz-bench:
//
//	go run ./cmd/fedsz-bench -run fig10
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand/v2"

	fedsz "repro"
	"repro/internal/nn/models"
	"repro/internal/stats"
)

func main() {
	if _, err := runDelta(0.02, 5e-4, 1e-3); err != nil {
		log.Fatal(err)
	}
}

// deltaReport is what one DP-noised delta round trip measured, for the test
// to assert on.
type deltaReport struct {
	DeltaTensors   int
	BytesSaved     int
	WireBytes      int
	AbsWireBytes   int
	MaxReconErr    float64
	NoiseKSLaplace float64
}

// laplace draws one Laplace(0, b) sample by inverse CDF.
func laplace(rng *rand.Rand, b float64) float64 {
	u := rng.Float64() - 0.5
	if u < 0 {
		return b * math.Log(1+2*u)
	}
	return -b * math.Log(1-2*u)
}

// runDelta runs the DP-noise × delta-residual × lossy-bound composition:
// reference global, update = reference + SGD-sized drift + Laplace(b) DP
// noise, shipped as a v3 residual under an ABS bound.
func runDelta(scale, noiseB, eb float64) (*deltaReport, error) {
	rng := rand.New(rand.NewPCG(5, 7))
	ref, err := models.BuildProfile("alexnet", rng, scale)
	if err != nil {
		return nil, err
	}
	upd := ref.Clone()
	noise := make([]float32, 0, 1024)
	for _, e := range upd.Entries() {
		for i := range e.Tensor.Data {
			n := laplace(rng, noiseB)
			e.Tensor.Data[i] += float32(1e-3*rng.NormFloat64() + n)
			noise = append(noise, float32(n))
		}
	}

	base, err := fedsz.New(fedsz.WithAbsBound(eb))
	if err != nil {
		return nil, err
	}
	codec := fedsz.NewDelta(base)
	codec.SetReference(ref)
	ctx := context.Background()
	stream, st, err := codec.Compress(ctx, upd)
	if err != nil {
		return nil, err
	}
	recon, _, err := codec.Decompress(ctx, stream)
	if err != nil {
		return nil, err
	}
	maxErr, err := recon.MaxAbsDiff(upd)
	if err != nil {
		return nil, err
	}
	absStream, _, err := base.Compress(ctx, upd)
	if err != nil {
		return nil, err
	}
	lf := stats.FitLaplace(noise)
	rep := &deltaReport{
		DeltaTensors:   st.DeltaTensors,
		BytesSaved:     st.DeltaBytesSaved,
		WireBytes:      len(stream),
		AbsWireBytes:   len(absStream),
		MaxReconErr:    maxErr,
		NoiseKSLaplace: stats.KSDistance(noise, lf.CDF),
	}
	fmt.Printf("DP noise × delta residual (Laplace b=%g, ABS bound %g):\n", noiseB, eb)
	fmt.Printf("  residual sections %d, wire %d B vs absolute %d B (%.1f%% saved)\n",
		rep.DeltaTensors, rep.WireBytes, rep.AbsWireBytes,
		100*(1-float64(rep.WireBytes)/float64(rep.AbsWireBytes)))
	fmt.Printf("  max reconstruction error %.3e (bound %g): the DP noise rides\n", maxErr, eb)
	fmt.Println("  the residual and survives the lossy round trip within the bound.")
	return rep, nil
}
