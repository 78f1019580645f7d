package flserve

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/tensor"
)

// correlatedUpdate returns ref plus a small SGD-sized step — the temporal
// correlation that makes residual sections win.
func correlatedUpdate(ref *tensor.StateDict, seed uint64) *tensor.StateDict {
	rng := rand.New(rand.NewPCG(seed, seed^0xD317A))
	sd := ref.Clone()
	for _, e := range sd.Entries() {
		for i := range e.Tensor.Data {
			e.Tensor.Data[i] += float32(1e-3 * rng.NormFloat64())
		}
	}
	return sd
}

// TestDeltaNegotiation covers the FLS2 prelude end to end: an accepted
// epoch decodes residual uploads, a stale epoch is refused but the session
// stays live for absolute uploads, a residual stream on a refused session
// is rejected (never folded against the wrong baseline), and plain FLS1
// clients interoperate unchanged with a delta-capable server — the
// wire-compatibility contract.
func TestDeltaNegotiation(t *testing.T) {
	const epoch = 9
	ref := clientUpdate(100)
	upd := correlatedUpdate(ref, 7)
	col := newCollector()
	srv, err := Listen("127.0.0.1:0", Config{
		Ingestor: col, Handler: col.handle,
		RefProvider: func(e uint32) *tensor.StateDict {
			if e == epoch {
				return ref
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &Client{Addr: srv.Addr().String()}
	ctx := context.Background()

	opts := core.Options{LossyParams: ebcl.Rel(1e-2)}
	absStream, _, err := core.Compress(upd, opts)
	if err != nil {
		t.Fatal(err)
	}
	dOpts := opts
	dOpts.Reference, dOpts.RefEpoch = ref, epoch
	deltaStream, stats, err := core.Compress(upd, dOpts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeltaTensors == 0 {
		t.Fatal("correlated update produced no residual sections")
	}

	// Matching epoch: accepted, and the residual stream decodes server-side.
	// A later absolute upload on the same accepted session is also fine —
	// acceptance permits v3, it does not require it.
	s, err := c.DialDelta(ctx, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if !s.DeltaAccepted() {
		t.Fatal("matching epoch refused")
	}
	if err := s.Upload(ctx, 0, deltaStream); err != nil {
		t.Fatalf("residual upload on accepted session: %v", err)
	}
	if err := s.Upload(ctx, 1, absStream); err != nil {
		t.Fatalf("absolute upload on accepted session: %v", err)
	}
	s.Close()

	// Stale epoch: refused, not an error — the session carries absolute
	// uploads.
	s2, err := c.DialDelta(ctx, epoch+1)
	if err != nil {
		t.Fatal(err)
	}
	if s2.DeltaAccepted() {
		t.Fatal("stale epoch accepted")
	}
	if err := s2.Upload(ctx, 2, absStream); err != nil {
		t.Fatalf("absolute upload on refused session: %v", err)
	}
	s2.Close()

	// A residual stream on a refused session must be rejected — the server
	// holds no baseline for it and must never decode against the wrong one.
	s3, err := c.DialDelta(ctx, epoch+1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.Upload(ctx, 3, deltaStream); !errors.Is(err, ErrRejected) {
		t.Fatalf("residual upload on refused session: %v, want ErrRejected", err)
	}
	s3.Close()

	// Legacy FLS1 client against the same server: byte-for-byte unchanged.
	if err := (&Client{Addr: srv.Addr().String()}).Upload(context.Background(), 4, absStream); err != nil {
		t.Fatalf("FLS1 client against delta-capable server: %v", err)
	}

	// Every accepted upload decoded bit-identically to the in-memory path.
	wantDelta, _, err := core.DecompressWith(ctx, nil, deltaStream,
		core.DecodeOptions{Reference: ref, RefEpoch: epoch})
	if err != nil {
		t.Fatal(err)
	}
	wantAbs, _, err := core.Decompress(absStream)
	if err != nil {
		t.Fatal(err)
	}
	col.mu.Lock()
	defer col.mu.Unlock()
	if len(col.updates) != 4 {
		t.Fatalf("server folded %d updates, want 4", len(col.updates))
	}
	if !bytes.Equal(col.states[0].Marshal(), wantDelta.Marshal()) {
		t.Fatal("residual upload decode differs from in-memory delta decode")
	}
	for _, id := range []uint32{1, 2, 4} {
		if !bytes.Equal(col.states[id].Marshal(), wantAbs.Marshal()) {
			t.Fatalf("client %d: absolute upload decode differs from in-memory decode", id)
		}
	}
	st := srv.Snapshot()
	if st.Updates != 4 || st.Rejected != 1 {
		t.Fatalf("stats %+v, want 4 updates / 1 rejected", st)
	}
}

// TestDialDeltaShed: a delta dial the server sheds before negotiating comes
// back as the typed retryable error carrying the server's hint — the same
// parse a shed upload ack goes through — never as a refused negotiation.
func TestDialDeltaShed(t *testing.T) {
	const dials = 6 // MaxConns 1 + QueueDepth 1 hold exactly two; the rest are shed
	srv, err := Listen("127.0.0.1:0", Config{
		Ingestor: newCollector(), MaxConns: 1, QueueDepth: 1, RetryAfterHint: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &Client{Addr: srv.Addr().String()}
	release := make(chan struct{})
	results := make(chan error, dials)
	for i := 0; i < dials; i++ {
		go func() {
			s, err := c.DialDelta(context.Background(), 1)
			if err == nil {
				// An open session pins its serving slot until the sheds are in.
				<-release
				err = s.Close()
			}
			results <- err
		}()
	}
	shed, released := 0, false
	for i := 0; i < dials; i++ {
		// Until the release only shed dials report back.
		if shed == dials-3 && !released {
			close(release)
			released = true
		}
		err := <-results
		if err == nil {
			continue
		}
		var se *ShedError
		if !errors.As(err, &se) || !errors.Is(err, ErrShed) || se.RetryAfter != 25*time.Millisecond {
			t.Fatalf("delta dial: got %v, want a *ShedError hinting 25ms", err)
		}
		shed++
	}
	if !released {
		t.Fatalf("only %d of %d delta dials were shed", shed, dials)
	}
}
