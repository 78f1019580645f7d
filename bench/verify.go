package main

// Output checking: the server's FedAvg mean against the exact float64 mean
// of the K original client updates, under the error contract the codec
// advertises. A lossy tensor of client i is reconstructed within
// relBound × range_i of its original, so the mean is within
// relBound × max_i(range_i) of the exact mean; the lossless partition is
// reconstructed exactly. On top of either sits the float32 fold itself:
// K additions and one scale, each rounding by at most 2⁻²⁴ of a partial sum
// no larger than K·max|x|, which bounds the fold's share of the mean's error
// by (K+2)·2⁻²⁴·max|x|.

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/tensor"
)

// relBound is the codec default under test (SZ2, REL 1e-2).
const relBound = 1e-2

// isLossy mirrors the partition rule of the zero-value core.Options.
func isLossy(e tensor.Entry) bool {
	return e.Kind == tensor.KindWeight && e.Tensor.NumElems() > core.DefaultThreshold
}

// verifyMean checks one round's result: count must equal len(originals) and
// every tensor of mean must sit within its bound of the exact mean. It
// returns the number of checks made and one error per failed check.
func verifyMean(mean *tensor.StateDict, count int, originals []*tensor.StateDict) (checks int, failures []error) {
	k := len(originals)
	checks++
	if count != k {
		failures = append(failures, fmt.Errorf("aggregator folded %d updates, want %d", count, k))
	}
	checks++
	if mean == nil {
		return checks, append(failures, fmt.Errorf("aggregator returned no mean"))
	}
	if err := originals[0].CheckCompatible(mean); err != nil {
		return checks, append(failures, fmt.Errorf("mean structure: %w", err))
	}
	clients := make([][]float32, k)
	for ei, e := range originals[0].Entries() {
		checks++
		got := mean.Entries()[ei].Tensor.Data
		var maxRange, maxAbs float64
		for c, sd := range originals {
			clients[c] = sd.Entries()[ei].Tensor.Data
			maxRange = max(maxRange, ebcl.ValueRange(clients[c]))
			for _, v := range clients[c] {
				maxAbs = max(maxAbs, math.Abs(float64(v)))
			}
		}
		bound := float64(k+2) * 0x1p-24 * maxAbs
		if isLossy(e) {
			bound += relBound * maxRange * (1 + 1e-3)
		}
		worst, at := 0.0, 0
		for j := range got {
			var sum float64
			for _, data := range clients {
				sum += float64(data[j])
			}
			// A NaN difference sticks: no later element compares above it.
			if d := math.Abs(float64(got[j]) - sum/float64(k)); d > worst || math.IsNaN(d) {
				worst, at = d, j
			}
		}
		if !(worst <= bound) {
			failures = append(failures, fmt.Errorf("tensor %q[%d]: |mean − exact| = %.3g exceeds bound %.3g", e.Name, at, worst, bound))
		}
	}
	return checks, failures
}
