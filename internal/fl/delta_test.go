package fl

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/ebcl"
)

// deltaReductionFloor is the least fraction of wire bytes residual streams
// must save over absolute streams on this correlated-rounds fixture. It is
// the floor the retired fedsz-bench perf snapshot gated (same name, same
// 0.25): a coarse "delta mode still pays" check. The operating point itself
// is held by bench/'s delta_rounds workload, whose wire_bytes_per_update
// bound is 0.5 %.
const deltaReductionFloor = 0.25

// TestFedSZTransportDeltaRounds: the FedSZ transport with Delta set must
// run full rounds end to end, actually take the residual path (the rounds
// are temporally correlated by construction), save at least
// deltaReductionFloor of the wire bytes the identical federation spends on
// absolute streams, and still learn.
func TestFedSZTransportDeltaRounds(t *testing.T) {
	const rounds = 3
	abs := FedSZ(core.Options{LossyParams: ebcl.Rel(1e-2)})
	absRes, err := smokeFederation(t, abs, 42).Run(context.Background(), rounds, 1)
	if err != nil {
		t.Fatal(err)
	}

	dt := FedSZ(core.Options{LossyParams: ebcl.Rel(1e-2)})
	dt.Delta = true
	dRes, err := smokeFederation(t, dt, 42).Run(context.Background(), rounds, 1)
	if err != nil {
		t.Fatal(err)
	}

	// The residual encoding must have engaged — otherwise this test silently
	// exercises the absolute path twice.
	last := dRes[rounds-1]
	if last.DeltaTensors == 0 {
		t.Fatalf("delta transport never took the residual path: %+v", last)
	}
	if last.DeltaBytesSaved <= 0 {
		t.Fatalf("residual path engaged but saved nothing: %+v", last)
	}
	if absRes[rounds-1].DeltaTensors != 0 {
		t.Fatalf("absolute transport reported residual sections: %+v", absRes[rounds-1])
	}

	// Local SGD steps are small relative to the weights, so residual streams
	// must cost at least deltaReductionFloor fewer total bytes than absolute
	// streams over the same rounds.
	absWire, dWire := 0, 0
	for r := 0; r < rounds; r++ {
		absWire += absRes[r].WireBytes
		dWire += dRes[r].WireBytes
	}
	if reduction := 1 - float64(dWire)/float64(absWire); reduction < deltaReductionFloor {
		t.Errorf("delta reduction %.3f below the %.2f floor (abs %d B, delta %d B)",
			reduction, deltaReductionFloor, absWire, dWire)
	}

	// Delta changes the encoding, not the error contract: learning stays in
	// the same band as the absolute run.
	if d := absRes[rounds-1].Accuracy - dRes[rounds-1].Accuracy; d > 0.15 {
		t.Errorf("delta cost %.3f accuracy (abs %.3f, delta %.3f)",
			d, absRes[rounds-1].Accuracy, dRes[rounds-1].Accuracy)
	}
	t.Logf("wire abs=%d delta=%d (%.1f%% saved), delta tensors last round=%d",
		absWire, dWire, 100*(1-float64(dWire)/float64(absWire)), last.DeltaTensors)
}
