package flserve_test

// The server's fold, end to end: uploads over loopback TCP into a Server
// whose Ingestor is the aggregator, agg.Sharded. These live in an external
// test package because agg imports flserve.

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/flserve"
	"repro/internal/netsim"
	"repro/internal/tensor"
	"repro/internal/wire"
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
// double-weight its client when dedup is on.
func TestAggregatorDedupByClient(t *testing.T) {
	streams, expected := flserve.CompressUpdates(t, 2)
	fold := agg.New(agg.Config{DedupByClient: true})
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

// TestMeanIntoShapeMismatch: a destination dict that no longer matches the
// accumulator must yield the explicit error, never a silent reallocation.
func TestMeanIntoShapeMismatch(t *testing.T) {
	fold := agg.New(agg.Config{})
	for i := uint64(1); i <= 2; i++ {
		stream, _, err := core.Compress(flserve.ClientUpdate(i), core.Options{LossyParams: ebcl.Rel(1e-2)})
		if err != nil {
			t.Fatal(err)
		}
		var framed bytes.Buffer
		if err := wire.NewWriter(&framed).WriteStream(stream); err != nil {
			t.Fatal(err)
		}
		if _, _, err := fold.IngestStream(context.Background(), uint32(i), 1, core.DecodeOptions{}, &framed); err != nil {
			t.Fatal(err)
		}
	}

	bad := tensor.NewStateDict()
	bad.Add("conv.weight", tensor.KindWeight, tensor.New(8, 8))
	if _, n, err := fold.MeanInto(bad); err == nil || n != 2 ||
		!strings.Contains(err.Error(), "incompatible") {
		t.Fatalf("mismatched destination: n=%d err=%v, want explicit incompatibility", n, err)
	}

	// A compatible destination is filled in place.
	dst := flserve.ClientUpdate(3)
	out, n, err := fold.MeanInto(dst)
	if err != nil || n != 2 {
		t.Fatalf("compatible destination: n=%d err=%v", n, err)
	}
	if out != dst {
		t.Fatal("MeanInto did not reuse the compatible destination")
	}
	want, wn := fold.Mean()
	if wn != 2 {
		t.Fatalf("Mean count %d, want 2", wn)
	}
	if d, err := out.MaxAbsDiff(want); err != nil || d != 0 {
		t.Fatalf("MeanInto result differs from Mean: d=%v err=%v", d, err)
	}

	// Empty accumulator: nil result, no error, any destination accepted.
	empty := agg.New(agg.Config{})
	if out, n, err := empty.MeanInto(bad); out != nil || n != 0 || err != nil {
		t.Fatalf("empty accumulator: (%v, %d, %v), want (nil, 0, nil)", out, n, err)
	}
}
