package main

import "testing"

// TestEdgeDeviceRuns measures and decides on a small profile — the CLI
// default uses scale 0.05; the smoke test shrinks it for speed.
func TestEdgeDeviceRuns(t *testing.T) {
	if err := run(0.01); err != nil {
		t.Fatal(err)
	}
}
