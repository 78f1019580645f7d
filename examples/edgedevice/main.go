// Edge-device scenario: an autonomous-vehicle-style client (paper §I) must
// decide whether compressing its model update pays off on its current
// uplink, using the paper's Equation 1 with *measured* compression costs:
// compress iff tC + tD + S'/B < S/B.
//
// The example measures one AlexNet update's codec costs and asks
// fedsz.ShouldCompress once, for a 10 Mbps edge uplink. The sweep of the
// same decision over bandwidths from 1 Mbps to 10 Gbps, per compressor,
// with its crossover (the paper locates it near 500 Mbps), is Figure 8:
//
//	go run ./cmd/fedsz-bench -run fig8
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
	fmt.Printf("AlexNet update: %.0f MB raw, %.0f MB compressed (%.2fx), compress %v, decompress %v\n",
		float64(raw)/1e6, float64(comp)/1e6, stats.Ratio(), tC.Round(time.Millisecond), tDfull.Round(time.Millisecond))

	link := fedsz.Link{BandwidthMbps: 10}
	d := fedsz.ShouldCompress(tC, tDfull, raw, comp, link)
	fmt.Printf("on a %g Mbps uplink: compress=%v (FedSZ %v against raw %v, %.2fx)\n",
		link.BandwidthMbps, d.Compress, d.CompressedTime.Round(time.Millisecond),
		d.UncompressedTime.Round(time.Millisecond), d.Speedup())
	return nil
}
