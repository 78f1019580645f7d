package main

import (
	"testing"

	"repro/internal/fl"
)

// TestFederatedExampleRuns executes a single quickstart-sized round with
// the raw transport (the FedSZ variant is covered by internal/fl tests).
func TestFederatedExampleRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("one full training round; skipped in short mode")
	}
	if err := run(fl.Raw, 1, 2, 11); err != nil {
		t.Fatal(err)
	}
}
