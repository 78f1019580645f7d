package main

import "testing"

// TestTrainSmoke runs a quickstart-sized federated simulation through the
// CLI entry point: 1 round, 2 clients, tiny images, the FedSZ arm and the
// raw (uncompressed) one.
func TestTrainSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("one full training round; skipped in short mode")
	}
	for _, noCompress := range []bool{false, true} {
		if err := run("alexnet", "cifar10", 1, 2, 1e-2, "sz2", noCompress, 10, 10, 64, 1); err != nil {
			t.Fatalf("noCompress=%v: %v", noCompress, err)
		}
	}
}

func TestTrainRejectsUnknownModel(t *testing.T) {
	if err := run("nope", "cifar10", 1, 2, 1e-2, "sz2", false, 10, 10, 64, 1); err == nil {
		t.Fatal("expected error for unknown model")
	}
}
