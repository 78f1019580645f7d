package flserve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand/v2"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/eblctest"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// clientUpdate synthesizes one client's model update: two lossy weight
// tensors plus metadata, distinct per seed.
func clientUpdate(seed uint64) *tensor.StateDict {
	rng := rand.New(rand.NewPCG(seed, seed^0x9E37))
	sd := tensor.NewStateDict()
	sd.Add("conv.weight", tensor.KindWeight, tensor.FromData(eblctest.WeightLike(rng, 4096), 64, 64))
	sd.Add("fc.weight", tensor.KindWeight, tensor.FromData(eblctest.WeightLike(rng, 2048), 2048))
	b := tensor.New(64)
	for i := range b.Data {
		b.Data[i] = float32(0.01 * rng.NormFloat64())
	}
	sd.Add("conv.bias", tensor.KindBias, b)
	return sd
}

func compressUpdates(t testing.TB, n int) ([][]byte, []*tensor.StateDict) {
	t.Helper()
	streams := make([][]byte, n)
	expected := make([]*tensor.StateDict, n)
	for i := range streams {
		var err error
		streams[i], _, err = core.Compress(clientUpdate(uint64(i)+1), core.Options{LossyParams: ebcl.Rel(1e-2)})
		if err != nil {
			t.Fatal(err)
		}
		expected[i], _, err = core.Decompress(streams[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	return streams, expected
}

// collector is the tests' whole-dict ingest: a StreamIngestor that decodes
// each update into a state dict — the bit-identity reference the tests
// compare against the in-memory decode — and a Handler that keeps every
// accepted update, both by client ID.
type collector struct {
	mu      sync.Mutex
	states  map[uint32]*tensor.StateDict
	updates map[uint32]Update
}

func newCollector() *collector {
	return &collector{states: make(map[uint32]*tensor.StateDict), updates: make(map[uint32]Update)}
}

func (c *collector) IngestStream(ctx context.Context, client uint32, _ float64, dopts core.DecodeOptions, r io.Reader) (int64, core.DecompressStats, error) {
	src := wire.NewSectionSource(ctx, r)
	dec, stats, err := core.DecodeSections(ctx, sched.Default(), src, dopts)
	if err != nil {
		return 0, core.DecompressStats{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.states[client] = dec.StateDict()
	return src.WireBytes(), *stats, nil
}

func (c *collector) handle(u Update) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.updates[u.Client] = u
}

// count returns how many distinct clients' updates have been delivered.
func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.updates)
}

// uploadAll fires n concurrent uploads and fails the test on any error.
func uploadAll(t *testing.T, addr string, streams [][]byte, link netsim.Link) {
	t.Helper()
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for i, s := range streams {
		wg.Add(1)
		go func(i int, s []byte) {
			defer wg.Done()
			c := &Client{Addr: addr, Link: link}
			errs[i] = c.Upload(context.Background(), uint32(i), s)
		}(i, s)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d upload: %v", i, err)
		}
	}
}

// TestLoopbackIngest32Concurrent is the acceptance e2e: 32 concurrent
// client connections, every decoded state dict bit-identical to the
// in-memory core.Decompress of the same payload.
func TestLoopbackIngest32Concurrent(t *testing.T) {
	const n = 32
	streams, expected := compressUpdates(t, n)
	col := newCollector()
	srv, err := Listen("127.0.0.1:0", Config{Ingestor: col, Handler: col.handle})
	if err != nil {
		t.Fatal(err)
	}
	uploadAll(t, srv.Addr().String(), streams, netsim.Link{})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	if len(col.updates) != n {
		t.Fatalf("server delivered %d updates, want %d", len(col.updates), n)
	}
	for i := 0; i < n; i++ {
		u, ok := col.updates[uint32(i)]
		if !ok {
			t.Fatalf("client %d update missing", i)
		}
		if !bytes.Equal(col.states[uint32(i)].Marshal(), expected[i].Marshal()) {
			t.Fatalf("client %d: streamed decode not bit-identical to in-memory decode", i)
		}
		if u.WireBytes <= int64(len(streams[i])) {
			t.Fatalf("client %d: wire bytes %d not accounting framing over %d payload", i, u.WireBytes, len(streams[i]))
		}
		if u.Stats.DecompressTime <= 0 || u.Stats.DecodeWork <= 0 {
			t.Fatalf("client %d: decode stats missing: %+v", i, u.Stats)
		}
	}
	st := srv.Snapshot()
	if st.Updates != n || st.Rejected != 0 {
		t.Fatalf("stats %+v", st)
	}
	if r := st.OverlapRatio(); r < 0 || r > 1 {
		t.Fatalf("overlap ratio %v out of [0,1]", r)
	}
}

// TestMaxConnsBackpressure: more clients than connection workers must all
// eventually succeed (a worker accepts when idle; nothing is dropped).
func TestMaxConnsBackpressure(t *testing.T) {
	const n = 12
	streams, _ := compressUpdates(t, n)
	col := newCollector()
	srv, err := Listen("127.0.0.1:0", Config{MaxConns: 2, Ingestor: col, Handler: col.handle})
	if err != nil {
		t.Fatal(err)
	}
	uploadAll(t, srv.Addr().String(), streams, netsim.Link{})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := col.count(); got != n {
		t.Fatalf("aggregated %d of %d updates", got, n)
	}
}

// TestCorruptUploadRejectedServerSurvives: an update damaged in transit —
// after the client framed it, so the frame CRC no longer matches — must
// produce a client-visible rejection and leave the server serving.
func TestCorruptUploadRejectedServerSurvives(t *testing.T) {
	streams, _ := compressUpdates(t, 2)
	col := newCollector()
	srv, err := Listen("127.0.0.1:0", Config{Ingestor: col, Handler: col.handle})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr().String()

	// What Client.Upload puts on the socket — connection magic, client ID,
	// wire frames — with one byte flipped inside a frame's payload.
	var sent bytes.Buffer
	sent.Write(binary.LittleEndian.AppendUint32(nil, connMagic))
	sent.Write(binary.LittleEndian.AppendUint32(nil, 0))
	if err := wire.NewWriter(&sent).WriteStream(streams[0]); err != nil {
		t.Fatal(err)
	}
	bad := sent.Bytes()
	bad[len(bad)/2] ^= 0xFF
	if err := rawUpload(addr, bad); !errors.Is(err, ErrRejected) {
		t.Fatalf("upload corrupted on the wire: got %v, want ErrRejected", err)
	}
	if err := (&Client{Addr: addr}).Upload(context.Background(), 1, streams[1]); err != nil {
		t.Fatalf("server did not survive corrupt upload: %v", err)
	}
	st := srv.Snapshot()
	if st.Updates != 1 || st.Rejected != 1 {
		t.Fatalf("stats %+v, want 1 update / 1 rejected", st)
	}
}

// TestThrottledUploadRecordsReadWait: with a constrained uplink the decode
// must observe time blocked on the socket — the precondition for any
// receive/decode overlap.
func TestThrottledUploadRecordsReadWait(t *testing.T) {
	streams, _ := compressUpdates(t, 2)
	col := newCollector()
	srv, err := Listen("127.0.0.1:0", Config{Ingestor: col, Handler: col.handle})
	if err != nil {
		t.Fatal(err)
	}
	uploadAll(t, srv.Addr().String(), streams, netsim.Link{BandwidthMbps: 50})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for id, u := range col.updates {
		if u.Stats.ReadWait <= 0 {
			t.Fatalf("client %d: no read wait recorded over a 50 Mbps link: %+v", id, u.Stats)
		}
		if r := u.Stats.OverlapRatio(); r < 0 || r > 1 {
			t.Fatalf("client %d: overlap ratio %v out of [0,1]", id, r)
		}
	}
}

// TestIdleClientDroppedFreesSlot: a stalled client must be disconnected
// after the idle timeout so it cannot pin a MaxConns slot forever.
func TestIdleClientDroppedFreesSlot(t *testing.T) {
	streams, _ := compressUpdates(t, 1)
	col := newCollector()
	srv, err := Listen("127.0.0.1:0", Config{
		MaxConns:    1,
		IdleTimeout: 100 * time.Millisecond,
		Ingestor:    col,
		Handler:     col.handle,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Occupy the only slot with a connection that sends half a prelude
	// and goes silent.
	stalled, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := stalled.Write([]byte{0x31, 0x53}); err != nil {
		t.Fatal(err)
	}

	// A well-behaved upload must still get through once the stalled
	// connection times out and releases the slot.
	done := make(chan error, 1)
	go func() { done <- (&Client{Addr: srv.Addr().String()}).Upload(context.Background(), 7, streams[0]) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("upload after stalled peer: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stalled connection pinned the slot; upload never completed")
	}
	if got := col.count(); got != 1 {
		t.Fatalf("aggregated %d updates, want 1", got)
	}
}

// TestGarbagePreludeRejected: junk before the protocol magic is refused.
func TestGarbagePreludeRejected(t *testing.T) {
	col := newCollector()
	srv, err := Listen("127.0.0.1:0", Config{Ingestor: col, Handler: col.handle})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	streams, _ := compressUpdates(t, 1)
	c := &Client{Addr: srv.Addr().String()}
	// Valid stream, but uploaded to a server expecting the prelude first —
	// simulate by corrupting the magic via a raw wire write.
	if err := c.Upload(context.Background(), 0, streams[0]); err != nil {
		t.Fatalf("control upload failed: %v", err)
	}
	if err := rawUpload(srv.Addr().String(), []byte("GARBAGEGARBAGE")); err == nil {
		t.Fatal("garbage prelude accepted")
	}
}

func rawUpload(addr string, data []byte) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := conn.Write(data); err != nil {
		return err
	}
	return readAck(conn)
}

func BenchmarkLoopbackIngest(b *testing.B) {
	const n = 16
	streams := make([][]byte, n)
	for i := range streams {
		var err error
		streams[i], _, err = core.Compress(clientUpdate(uint64(i)+1), core.Options{LossyParams: ebcl.Rel(1e-2)})
		if err != nil {
			b.Fatal(err)
		}
	}
	col := newCollector()
	srv, err := Listen("127.0.0.1:0", Config{Ingestor: col, Handler: col.handle})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr().String()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for j, s := range streams {
			wg.Add(1)
			go func(j int, s []byte) {
				defer wg.Done()
				if err := (&Client{Addr: addr}).Upload(context.Background(), uint32(j), s); err != nil {
					b.Error(err)
				}
			}(j, s)
		}
		wg.Wait()
	}
	b.StopTimer()
	st := srv.Snapshot()
	b.ReportMetric(st.OverlapRatio(), "overlap")
}

// TestServeRequiresIngestor: a server with no Ingestor cannot fold an
// update, so Serve refuses the Config outright.
func TestServeRequiresIngestor(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "Config.Ingestor") {
			t.Fatalf("Serve without an Ingestor: recovered %q, want a panic naming Config.Ingestor", msg)
		}
	}()
	Serve(ln, Config{Handler: func(Update) {}})
}
