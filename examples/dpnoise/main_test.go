package main

import "testing"

// TestDPNoiseDeltaScenario is the promoted DP × delta × lossy-bound
// scenario: Laplace DP noise added to an update must ride the residual
// encoding (which still wins over absolute) and come back within the lossy
// bound — noise calibrated for privacy is not eaten by compression.
func TestDPNoiseDeltaScenario(t *testing.T) {
	const (
		noiseB = 5e-4
		bound  = 1e-3
	)
	rep, err := runDelta(0.01, noiseB, bound)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeltaTensors == 0 {
		t.Fatal("DP-noised update never took the residual path")
	}
	if rep.BytesSaved <= 0 {
		t.Fatalf("residual path engaged but saved nothing: %+v", rep)
	}
	if rep.WireBytes >= rep.AbsWireBytes {
		t.Fatalf("delta stream %d B not below absolute %d B", rep.WireBytes, rep.AbsWireBytes)
	}
	// The error contract holds on the noised data (small float slack).
	if rep.MaxReconErr > bound*(1+1e-6) {
		t.Fatalf("reconstruction error %g exceeds bound %g", rep.MaxReconErr, bound)
	}
	// Sanity on the mechanism itself: the injected noise is Laplacian.
	if rep.NoiseKSLaplace > 0.05 {
		t.Fatalf("injected noise KS distance to Laplace %g — mechanism broken", rep.NoiseKSLaplace)
	}
}
