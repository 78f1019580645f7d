package flserve_test

// The server's fold, end to end: uploads over loopback TCP into a Server
// whose Ingestor is the aggregator, agg.Sharded. These live in an external
// test package because agg imports flserve.

import (
	"context"
	"testing"

	"repro/internal/agg"
	"repro/internal/flserve"
	"repro/internal/netsim"
)

// TestAggregatorMatchesManualFedAvg: the incremental fold must equal the
// all-at-once mean of the decoded updates (within float summation noise —
// arrival order is nondeterministic).
func TestAggregatorMatchesManualFedAvg(t *testing.T) {
	const n = 8
	streams, expected := flserve.CompressUpdates(t, n)
	fold := agg.New(agg.Config{})
	srv, err := flserve.Listen("127.0.0.1:0", flserve.Config{Ingestor: fold})
	if err != nil {
		t.Fatal(err)
	}
	flserve.UploadAll(t, srv.Addr().String(), streams, netsim.Link{})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	mean, count := fold.Mean()
	if count != n {
		t.Fatalf("aggregated %d updates, want %d", count, n)
	}
	want := expected[0].Zero()
	for _, sd := range expected {
		if err := want.AddScaled(sd, 1/float32(n)); err != nil {
			t.Fatal(err)
		}
	}
	d, err := mean.MaxAbsDiff(want)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-5 {
		t.Fatalf("incremental mean differs from reference by %g", d)
	}
}

// TestAggregatorDedupByClient: with the at-least-once retry policy a
// duplicate upload (ack lost after fold, client retried) must not
// double-weight its client: the aggregator always dedups by client ID.
func TestAggregatorDedupByClient(t *testing.T) {
	streams, expected := flserve.CompressUpdates(t, 2)
	fold := agg.New(agg.Config{})
	srv, err := flserve.Listen("127.0.0.1:0", flserve.Config{Ingestor: fold})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, id := range []uint32{0, 1, 0} { // client 0 retried
		if err := (&flserve.Client{Addr: srv.Addr().String()}).Upload(ctx, id, streams[id]); err != nil {
			t.Fatalf("upload %d: %v", id, err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	mean, n := fold.Mean()
	if n != 2 {
		t.Fatalf("folded %d updates, want 2 (duplicate dropped)", n)
	}
	want := expected[0].Zero()
	for _, sd := range expected {
		if err := want.AddScaled(sd, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if d, err := mean.MaxAbsDiff(want); err != nil || d > 1e-6 {
		t.Fatalf("dedup mean off by %v (err=%v)", d, err)
	}
}
