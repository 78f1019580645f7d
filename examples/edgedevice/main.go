// Edge-device scenario: an autonomous-vehicle-style client (paper §I) must
// decide whether compressing its model update pays off on its current
// uplink, using the paper's Equation 1 with *measured* compression costs.
//
// The example sweeps bandwidths from congested cellular (1 Mbps) to a
// data-center fabric (10 Gbps) and prints where the compress/don't-compress
// crossover falls (the paper locates it near 500 Mbps).
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"
	"time"

	fedsz "repro"
	"repro/internal/nn/models"
)

func main() {
	// A scaled AlexNet profile stands in for the client's trained model
	// (full-size weights are synthesized at 5% scale; times and sizes are
	// extrapolated linearly back to paper scale below).
	if err := run(0.05); err != nil {
		log.Fatal(err)
	}
}

func run(scale float64) error {
	rng := rand.New(rand.NewPCG(7, 7))
	sd, err := models.BuildProfile("alexnet", rng, scale)
	if err != nil {
		return err
	}

	codec, err := fedsz.New(fedsz.WithRelBound(1e-2))
	if err != nil {
		return err
	}
	ctx := context.Background()
	stream, stats, err := codec.Compress(ctx, sd)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, _, err := codec.Decompress(ctx, stream); err != nil {
		return err
	}
	tD := time.Since(t0)

	// Extrapolate to paper scale (linear in bytes).
	up := 1 / scale
	tC := time.Duration(float64(stats.CompressTime) * up)
	tDfull := time.Duration(float64(tD) * up)
	raw := int(float64(stats.RawBytes) * up)
	comp := int(float64(stats.CompressedBytes) * up)

	fmt.Printf("AlexNet update: %.0f MB raw, %.0f MB compressed (%.2fx), codec %.2fs\n",
		float64(raw)/1e6, float64(comp)/1e6, stats.Ratio(), (tC + tDfull).Seconds())
	fmt.Printf("\n%-16s %-14s %-14s %-10s %s\n", "bandwidth", "raw xfer", "fedsz total", "compress?", "speedup")

	var crossover float64 = -1
	for _, mbps := range []float64{1, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 10000} {
		link := fedsz.Link{BandwidthMbps: mbps}
		d := fedsz.ShouldCompress(tC, tDfull, raw, comp, link)
		fmt.Printf("%-16s %-14s %-14s %-10v %.2fx\n",
			fmt.Sprintf("%g Mbps", mbps),
			d.UncompressedTime.Round(time.Millisecond),
			d.CompressedTime.Round(time.Millisecond),
			d.Compress, d.Speedup())
		if !d.Compress && crossover < 0 {
			crossover = mbps
		}
	}
	if crossover > 0 {
		fmt.Printf("\ncompression stops paying off near %g Mbps (paper: ~500 Mbps)\n", crossover)
	} else {
		fmt.Println("\ncompression pays off at every tested bandwidth")
	}
	return nil
}
