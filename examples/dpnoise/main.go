// Differential-privacy scenario (paper §VII-D): the error FedSZ's lossy
// stage injects into the weights looks Laplacian — the noise family used by
// classic ε-differential-privacy mechanisms. This example compresses a
// model at several error bounds, extracts the error vector, fits Laplace
// and Gaussian distributions, and compares goodness of fit with the
// Kolmogorov–Smirnov statistic.
//
// The second stage composes DP noise with the cross-round delta mode: a
// client adds calibrated Laplace noise to its update, then ships it as a
// residual against the broadcast global. The residual is the (small) SGD
// step plus the (small) DP noise, so the delta encoding keeps winning, and
// the lossy bound applies to the noised update — the mechanism's noise
// survives the round trip within the usual error contract.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand/v2"
	"strings"

	fedsz "repro"
	"repro/internal/nn/models"
	"repro/internal/stats"
)

func main() {
	if err := run(0.02); err != nil {
		log.Fatal(err)
	}
	if _, err := runDelta(0.02, 5e-4, 1e-3); err != nil {
		log.Fatal(err)
	}
}

func run(scale float64) error {
	rng := rand.New(rand.NewPCG(3, 3))
	sd, err := models.BuildProfile("alexnet", rng, scale)
	if err != nil {
		return err
	}
	// Flatten the weight partition: the data the EBLC perturbs.
	var weights []float32
	for _, e := range sd.Entries() {
		if e.Kind == fedsz.KindWeight {
			weights = append(weights, e.Tensor.Data...)
		}
	}
	comp, err := fedsz.CompressorByName("sz2")
	if err != nil {
		return err
	}

	fmt.Println("FedSZ decompression-error analysis (paper Fig. 10 methodology)")
	fmt.Printf("%-8s %-12s %-12s %-12s %-12s %-8s\n",
		"REL", "err std", "laplace b", "KS laplace", "KS gauss", "winner")
	for _, eb := range []float64{0.5, 0.1, 0.05, 0.01} {
		stream, err := comp.CompressAppend(nil, weights, fedsz.RelBound(eb))
		if err != nil {
			return err
		}
		recon, err := comp.DecompressInto(nil, stream)
		if err != nil {
			return err
		}
		errs := stats.Errors(weights, recon)
		summ := stats.Summarize(errs)
		lf := stats.FitLaplace(errs)
		gf := stats.FitGaussian(errs)
		ksL := stats.KSDistance(errs, lf.CDF)
		ksG := stats.KSDistance(errs, gf.CDF)
		winner := "laplace"
		if ksG < ksL {
			winner = "gauss"
		}
		fmt.Printf("%-8g %-12.3e %-12.3e %-12.4f %-12.4f %-8s\n",
			eb, summ.Std, lf.B, ksL, ksG, winner)

		// Text histogram of the error distribution.
		lim := 3 * summ.Std
		if lim > 0 {
			h := stats.NewHistogram(errs, -lim, lim, 41)
			maxC := 1
			for _, c := range h.Counts {
				if c > maxC {
					maxC = c
				}
			}
			for i := 0; i < len(h.Counts); i += 4 {
				bar := strings.Repeat("#", h.Counts[i]*40/maxC)
				fmt.Printf("  %+9.2e |%s\n", h.BinCenter(i), bar)
			}
		}
	}
	fmt.Println("\nA Laplacian error profile suggests the compressor's noise could")
	fmt.Println("double as DP noise — the paper's §VII-D observation. Formal ε")
	fmt.Println("guarantees would need calibrated sensitivity analysis (future work).")
	return nil
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
	fmt.Printf("\nDP noise × delta residual (Laplace b=%g, ABS bound %g):\n", noiseB, eb)
	fmt.Printf("  residual sections %d, wire %d B vs absolute %d B (%.1f%% saved)\n",
		rep.DeltaTensors, rep.WireBytes, rep.AbsWireBytes,
		100*(1-float64(rep.WireBytes)/float64(rep.AbsWireBytes)))
	fmt.Printf("  max reconstruction error %.3e (bound %g): the DP noise rides\n", maxErr, eb)
	fmt.Println("  the residual and survives the lossy round trip within the bound.")
	return rep, nil
}
