package flserve

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// TestSessionMultiUpdate: N wire streams over one dial, acked
// individually, each decoded bit-identically — the multi-update protocol
// that amortizes connection cost across a round.
func TestSessionMultiUpdate(t *testing.T) {
	const n = 6
	streams, expected := compressUpdates(t, n)
	col := newCollector()
	srv, err := Listen("127.0.0.1:0", Config{Ingestor: col, Handler: col.handle})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c := &Client{Addr: srv.Addr().String()}
	sess, err := c.Dial(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := sess.Upload(ctx, uint32(i), streams[i]); err != nil {
			t.Fatalf("update %d on shared connection: %v", i, err)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	st := srv.Snapshot()
	if st.Updates != n || st.Rejected != 0 {
		t.Fatalf("stats %+v, want %d clean updates over one connection", st, n)
	}
	for i := 0; i < n; i++ {
		u, ok := col.updates[uint32(i)]
		if !ok {
			t.Fatalf("update %d missing", i)
		}
		if !bytes.Equal(col.states[uint32(i)].Marshal(), expected[i].Marshal()) {
			t.Fatalf("update %d: multi-update decode not bit-identical", i)
		}
		if u.WireBytes <= int64(len(streams[i])) {
			t.Fatalf("update %d: per-update wire bytes %d not accounting framing over %d",
				i, u.WireBytes, len(streams[i]))
		}
	}
}

// TestUploadStateStreamsEncode: the streaming-encode upload must decode
// bit-identically to the buffered pipeline and report encode stats.
func TestUploadStateStreamsEncode(t *testing.T) {
	sd := clientUpdate(99)
	opts := core.Options{LossyParams: ebcl.Rel(1e-2)}
	want, _, err := core.Compress(sd, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantDict, _, err := core.Decompress(want)
	if err != nil {
		t.Fatal(err)
	}

	col := newCollector()
	srv, err := Listen("127.0.0.1:0", Config{Ingestor: col, Handler: col.handle})
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{Addr: srv.Addr().String(), Link: netsim.Link{BandwidthMbps: 200}}
	stats, err := c.UploadState(context.Background(), 7, sd, opts, sched.NewPool(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if stats.CompressedBytes != len(want) {
		t.Fatalf("streamed %d bytes, buffered pipeline %d", stats.CompressedBytes, len(want))
	}
	if stats.EncodeWork <= 0 {
		t.Fatalf("encode stats missing: %+v", stats)
	}
	got, ok := col.states[7]
	if !ok {
		t.Fatal("update never delivered")
	}
	if !bytes.Equal(got.Marshal(), wantDict.Marshal()) {
		t.Fatal("streaming-encode upload decoded differently from buffered pipeline")
	}
}

// TestUploadTimeoutDropsStalledUpdate: a client that starts an update and
// stalls must be cut at the per-upload deadline — rejected, connection
// dropped, MaxConns slot released.
func TestUploadTimeoutDropsStalledUpdate(t *testing.T) {
	streams, _ := compressUpdates(t, 1)
	col := newCollector()
	srv, err := Listen("127.0.0.1:0", Config{
		MaxConns:      1,
		UploadTimeout: 150 * time.Millisecond,
		IdleTimeout:   -1, // isolate the upload deadline from the idle path
		Ingestor:      col,
		Handler:       col.handle,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Valid magic + clientID, then silence mid-update.
	stalled, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := stalled.Write([]byte{0x31, 0x53, 0x4C, 0x46, 9, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- (&Client{Addr: srv.Addr().String()}).Upload(context.Background(), 1, streams[0]) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("upload after stalled update: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stalled update outlived its UploadTimeout and pinned the slot")
	}
	if got := col.count(); got != 1 {
		t.Fatalf("aggregated %d updates, want 1", got)
	}
	if st := srv.Snapshot(); st.Rejected != 1 {
		t.Fatalf("stats %+v, want the stalled update rejected", st)
	}
}

// TestClientRetriesTransportFailure: a dial that fails until the server
// appears must succeed within the retry budget; a server rejection must
// not retry.
func TestClientRetriesTransportFailure(t *testing.T) {
	streams, _ := compressUpdates(t, 1)
	// Reserve an address with no listener, then bring the server up after
	// the first attempt has failed.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	col := newCollector()
	started := make(chan struct{})
	go func() {
		time.Sleep(200 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			close(started)
			return
		}
		Serve(ln2, Config{Ingestor: col, Handler: col.handle})
		close(started)
	}()

	c := &Client{Addr: addr, Retries: 8, RetryBackoff: 100 * time.Millisecond}
	if err := c.Upload(context.Background(), 3, streams[0]); err != nil {
		t.Fatalf("upload with retries: %v", err)
	}
	<-started
	if col.count() != 1 {
		t.Fatalf("aggregated %d updates, want 1", col.count())
	}

	// Rejections must not retry: a corrupt stream against the live server
	// fails fast even with a retry budget. The damage is to a structural
	// byte — the first tensor blob's SZ2 magic, which the client's section
	// framing does not parse and the server's decoder is bound to refuse; a
	// flip inside the entropy-coded payload before framing is covered by no
	// checksum.
	bad := append([]byte(nil), streams[0]...)
	at := bytes.Index(bad, []byte{0x02, 0x00, 0x5A, 0x53})
	if at < 0 {
		t.Fatal("no SZ2 blob in the stream")
	}
	bad[at] ^= 0xFF
	cr := &Client{Addr: addr, Retries: 3, RetryBackoff: 10 * time.Millisecond}
	t0 := time.Now()
	err = cr.Upload(context.Background(), 4, bad)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("corrupt upload: got %v, want ErrRejected", err)
	}
	if time.Since(t0) > 2*time.Second {
		t.Fatal("rejection appears to have been retried")
	}
}

// TestUploadCancelledContext: cancelling the context mid-upload surfaces
// context.Canceled, not a masked I/O error.
func TestUploadCancelledContext(t *testing.T) {
	streams, _ := compressUpdates(t, 1)
	col := newCollector()
	srv, err := Listen("127.0.0.1:0", Config{Ingestor: col, Handler: col.handle})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := &Client{Addr: srv.Addr().String(), Link: netsim.Link{BandwidthMbps: 5}}
	if err := c.Upload(ctx, 0, streams[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestWireBytesExactOnSharedConnection: per-update WireBytes summed over a
// multi-update session must equal the bytes the client actually sent —
// the de-framer's logical accounting, immune to bufio read-ahead.
func TestWireBytesExactOnSharedConnection(t *testing.T) {
	const n = 4
	streams, _ := compressUpdates(t, n)
	col := newCollector()
	srv, err := Listen("127.0.0.1:0", Config{Ingestor: col, Handler: col.handle})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c := &Client{Addr: srv.Addr().String()}
	sess, err := c.Dial(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sent := int64(4) // connection magic
	for i := 0; i < n; i++ {
		if err := sess.Upload(ctx, uint32(i), streams[i]); err != nil {
			t.Fatal(err)
		}
		var framed bytes.Buffer
		if err := (wireWriterFor(&framed)).WriteStream(streams[i]); err != nil {
			t.Fatal(err)
		}
		sent += 4 + int64(framed.Len()) // clientID + wire stream
	}
	sess.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	var got int64
	for _, u := range col.updates {
		got += u.WireBytes
	}
	if got != sent {
		t.Fatalf("summed WireBytes %d, client sent %d", got, sent)
	}
}

// wireWriterFor keeps the wire import local to the helper.
func wireWriterFor(w *bytes.Buffer) *wire.Writer { return wire.NewWriter(w) }

// TestStaleUploadDeadlineClearedBetweenUpdates: with the idle bound off, the
// deadline an update's UploadTimeout arms must not outlive the update. A
// session that pauses past it before its next update stays open.
func TestStaleUploadDeadlineClearedBetweenUpdates(t *testing.T) {
	// ~196 KB of lossless payload: larger than the server's 32 KiB read
	// buffer, so the ingest reads the socket with the deadline armed.
	rng := rand.New(rand.NewPCG(3, 3))
	b := tensor.New(49152)
	for i := range b.Data {
		b.Data[i] = float32(rng.NormFloat64())
	}
	sd := tensor.NewStateDict()
	sd.Add("fc.bias", tensor.KindBias, b)
	stream, _, err := core.Compress(sd, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Listen("127.0.0.1:0", Config{
		Ingestor:      newCollector(),
		UploadTimeout: 500 * time.Millisecond,
		IdleTimeout:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	sess, err := (&Client{Addr: srv.Addr().String()}).Dial(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Upload(ctx, 1, stream); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Second)
	if err := sess.Upload(ctx, 2, stream); err != nil {
		t.Fatalf("upload after a pause past the first update's deadline: %v", err)
	}
	if st := srv.Snapshot(); st.Updates != 2 || st.Rejected != 0 {
		t.Fatalf("stats %+v, want 2 updates and no rejections", st)
	}
}
