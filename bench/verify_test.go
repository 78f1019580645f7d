package main

import (
	"context"
	"strings"
	"testing"

	"repro/internal/ebcl"
	"repro/internal/tensor"
)

// exactMean is the float64 mean of sds, rounded once to float32.
func exactMean(sds []*tensor.StateDict) *tensor.StateDict {
	out := sds[0].Zero()
	for i, e := range out.Entries() {
		for j := range e.Tensor.Data {
			var sum float64
			for _, sd := range sds {
				sum += float64(sd.Entries()[i].Tensor.Data[j])
			}
			e.Tensor.Data[j] = float32(sum / float64(len(sds)))
		}
	}
	return out
}

// lossyBound is the error the codec may add to the mean of entry i.
func lossyBound(sds []*tensor.StateDict, i int) float64 {
	var r float64
	for _, sd := range sds {
		r = max(r, ebcl.ValueRange(sd.Entries()[i].Tensor.Data))
	}
	return relBound * r
}

func TestVerifyMean(t *testing.T) {
	originals := genClients(1, mobilenetEven(40_000), 4)
	const lossyEntry, metaEntry = 0, 1 // layer00.weight, layer00.bias
	if !isLossy(originals[0].Entries()[lossyEntry]) || isLossy(originals[0].Entries()[metaEntry]) {
		t.Fatal("test assumes entry 0 is lossy and entry 1 is not")
	}

	cases := []struct {
		name  string
		mean  func() (*tensor.StateDict, int)
		wantN int    // failed checks
		want  string // substring of the first failure
	}{
		{"exact mean", func() (*tensor.StateDict, int) { return exactMean(originals), 4 }, 0, ""},
		{"lossy tensor off by 0.9 of its bound", func() (*tensor.StateDict, int) {
			m := exactMean(originals)
			m.Entries()[lossyEntry].Tensor.Data[7] += float32(0.9 * lossyBound(originals, lossyEntry))
			return m, 4
		}, 0, ""},
		{"lossy tensor off by twice its bound", func() (*tensor.StateDict, int) {
			m := exactMean(originals)
			m.Entries()[lossyEntry].Tensor.Data[7] += float32(2 * lossyBound(originals, lossyEntry))
			return m, 4
		}, 1, "layer00.weight"},
		{"lossless tensor off by 1e-4", func() (*tensor.StateDict, int) {
			m := exactMean(originals)
			m.Entries()[metaEntry].Tensor.Data[3] += 1e-4
			return m, 4
		}, 1, "layer00.bias"},
		{"NaN in the mean", func() (*tensor.StateDict, int) {
			m := exactMean(originals)
			nan := float32(0)
			m.Entries()[lossyEntry].Tensor.Data[0] = nan / nan
			return m, 4
		}, 1, "layer00.weight"},
		{"wrong count", func() (*tensor.StateDict, int) { return exactMean(originals), 3 }, 1, "folded 3 updates, want 4"},
		{"dropped update", func() (*tensor.StateDict, int) { return exactMean(originals[:3]), 3 }, 2, "folded 3 updates, want 4"},
		{"no mean", func() (*tensor.StateDict, int) { return nil, 0 }, 2, "folded 0 updates"},
	}
	for _, c := range cases {
		mean, count := c.mean()
		checks, failures := verifyMean(mean, count, originals)
		if checks < 1 || len(failures) > checks {
			t.Errorf("%s: %d failures out of %d checks", c.name, len(failures), checks)
		}
		if c.name == "dropped update" {
			// Beyond the count, the per-client counters shift the metadata mean.
			if len(failures) < c.wantN {
				t.Errorf("%s: %d failures, want at least %d: %v", c.name, len(failures), c.wantN, failures)
			}
		} else if len(failures) != c.wantN {
			t.Errorf("%s: %d failures, want %d: %v", c.name, len(failures), c.wantN, failures)
		}
		if c.want != "" && (len(failures) == 0 || !strings.Contains(failures[0].Error(), c.want)) {
			t.Errorf("%s: first failure %v, want it to mention %q", c.name, failures, c.want)
		}
	}
}

// A failed check must reach the result the process exits on.
func TestFailuresMakeTheRunIncorrect(t *testing.T) {
	originals := genClients(1, tinyEven(3_000), 2)
	var tl tally
	checks, failures := verifyMean(exactMean(originals), 1, originals)
	tl.attempted += checks - len(failures)
	for _, err := range failures {
		tl.fail(err)
	}
	if tl.failed != 1 || tl.attempted != checks {
		t.Errorf("tally after one wrong count: %d failed of %d attempted, want 1 of %d", tl.failed, tl.attempted, checks)
	}
}

// Measured rounds skip the bound check but not the count: an update the round
// did not send, folded into it, must fail the run.
func TestStrayUpdateFailsTheRound(t *testing.T) {
	w, _ := workloadByName("ingest_small")
	e, err := setUp(w, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if e.tally.failed != 0 {
		t.Fatalf("warm-up failed: %v", e.tally.errs)
	}
	if err := e.client.Upload(context.Background(), uint32(w.clients), e.in.streams[0]); err != nil {
		t.Fatal(err)
	}
	e.runRound(nil, false)
	e.tearDown()
	if e.tally.failed != 1 {
		t.Errorf("%d failures after a stray update, want 1: %v", e.tally.failed, e.tally.errs)
	}
}
