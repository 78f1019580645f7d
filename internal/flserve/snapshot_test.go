package flserve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/promtext"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// TestSnapshotScrapeUnderLoad hammers Snapshot() and a full Prometheus
// render from scraper goroutines while uploads are in flight — the
// -race proof that the server's counters and its registry are safe to
// read concurrently with the ingest hot path.
func TestSnapshotScrapeUnderLoad(t *testing.T) {
	const n = 16
	streams, _ := compressUpdates(t, n)
	srv, err := Listen("127.0.0.1:0", Config{Ingestor: newCollector()})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	srv.RegisterMetrics(reg)

	var stopScrape atomic.Bool
	var scrapes sync.WaitGroup
	for g := 0; g < 4; g++ {
		scrapes.Add(1)
		go func() {
			defer scrapes.Done()
			for !stopScrape.Load() {
				st := srv.Snapshot()
				if st.Updates < 0 || st.WireBytes < 0 || st.Rejected < 0 {
					panic("snapshot went negative")
				}
				if r := st.OverlapRatio(); r < 0 || r > 1 {
					panic("overlap ratio out of [0,1]")
				}
				if err := reg.WritePrometheus(io.Discard); err != nil {
					panic(err)
				}
			}
		}()
	}

	uploadAll(t, srv.Addr().String(), streams, netsim.Link{})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	stopScrape.Store(true)
	scrapes.Wait()

	st := srv.Snapshot()
	if st.Updates != n || st.Rejected != 0 {
		t.Fatalf("final snapshot %+v, want %d updates / 0 rejected", st, n)
	}
	if st.WireBytes == 0 || st.DecodeWork == 0 {
		t.Fatalf("final snapshot missing accounting: %+v", st)
	}
}

// TestSnapshotEqualsScrape: Stats and /metrics are two views of one set of
// counters. A burst of uploads of which admission control sheds some, one
// update corrupted in transit and one connection with a garbage prelude must
// read the same through Snapshot() and through the server's registered
// series, and a second server in the process must move neither.
func TestSnapshotEqualsScrape(t *testing.T) {
	const burst = 6 // MaxConns 1 + QueueDepth 1 admit exactly two while the gate is shut
	streams, _ := compressUpdates(t, burst)
	gate := make(chan struct{})
	var mu sync.Mutex
	var readWait, decodeWork time.Duration
	cfg := Config{MaxConns: 1, QueueDepth: 1, Ingestor: newCollector(), Handler: func(u Update) {
		<-gate
		mu.Lock()
		defer mu.Unlock()
		readWait += u.Stats.ReadWait
		decodeWork += u.Stats.DecodeWork
	}}
	srv, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := telemetry.NewRegistry()
	srv.RegisterMetrics(reg)
	addr := srv.Addr().String()
	scrape := func(name string, labels ...string) float64 {
		t.Helper()
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		samples, err := promtext.ParseText(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		s, ok := promtext.FindSample(samples, name, labels...)
		if !ok {
			t.Fatalf("scrape has no %s%v", name, labels)
		}
		return s.Value
	}
	// The corrupt upload below is refused for no reason but its corruption.
	rejectedUpdates := func() float64 {
		t.Helper()
		for _, reason := range []string{"nonfinite", "structure", "cap"} {
			if v := scrape("fedsz_server_updates_rejected_total", "reason", reason); v != 0 {
				t.Errorf("%v updates rejected for %s", v, reason)
			}
		}
		return scrape("fedsz_server_updates_rejected_total", "reason", "other")
	}

	errs := make([]error, burst)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = (&Client{Addr: addr}).Upload(context.Background(), uint32(i), streams[i])
		}(i)
	}
	// Every admission decision but possibly the last is made once the
	// listener has accepted the whole burst; only then may the slot free up.
	for deadline := time.Now().Add(10 * time.Second); scrape("fedsz_server_connections_accepted_total") < burst; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("burst never accepted")
		}
	}
	close(gate)
	wg.Wait()
	good, shed := 0, 0
	for i, err := range errs {
		switch {
		case err == nil:
			good++
		case errors.Is(err, ErrShed):
			shed++
		default:
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if good == 0 || shed == 0 {
		t.Fatalf("burst gave %d folded / %d shed, want some of each", good, shed)
	}

	var sent bytes.Buffer
	sent.Write(binary.LittleEndian.AppendUint32(nil, connMagic))
	sent.Write(binary.LittleEndian.AppendUint32(nil, burst))
	if err := wire.NewWriter(&sent).WriteStream(streams[0]); err != nil {
		t.Fatal(err)
	}
	bad := sent.Bytes()
	bad[len(bad)/2] ^= 0xFF
	if err := rawUpload(addr, bad); !errors.Is(err, ErrRejected) {
		t.Fatalf("corrupt upload: got %v, want ErrRejected", err)
	}
	if err := rawUpload(addr, []byte("GARBAGEGARBAGE")); !errors.Is(err, ErrRejected) {
		t.Fatalf("garbage prelude: got %v, want ErrRejected", err)
	}

	other, err := Listen("127.0.0.1:0", Config{Ingestor: newCollector()})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := (&Client{Addr: other.Addr().String()}).Upload(context.Background(), 0, streams[0]); err != nil {
		t.Fatal(err)
	}

	st := srv.Snapshot()
	if st.Updates != good || st.Rejected != 2 || st.Shed != shed {
		t.Fatalf("snapshot %+v, want %d updates / 2 rejected / %d shed", st, good, shed)
	}
	for _, c := range []struct {
		field    string
		snapshot float64
		scraped  float64
	}{
		{"Updates", float64(st.Updates), scrape("fedsz_server_updates_total")},
		{"Updates (decode histogram)", float64(st.Updates), scrape("fedsz_server_decode_seconds_count")},
		{"Rejected", float64(st.Rejected),
			scrape("fedsz_server_connections_rejected_total") + rejectedUpdates()},
		{"Shed", float64(st.Shed), scrape("fedsz_server_shed_total")},
		{"WireBytes", float64(st.WireBytes), scrape("fedsz_server_wire_bytes_total")},
		{"WireBytes (size histogram)", float64(st.WireBytes), scrape("fedsz_server_update_wire_bytes_sum")},
	} {
		if c.snapshot != c.scraped {
			t.Errorf("Stats.%s = %v, scrape reads %v", c.field, c.snapshot, c.scraped)
		}
	}
	if c, u := scrape("fedsz_server_connections_rejected_total"), rejectedUpdates(); c != 1 || u != 1 {
		t.Errorf("scrape reads %v rejected connections / %v rejected updates, want 1 / 1", c, u)
	}
	mu.Lock()
	defer mu.Unlock()
	if st.ReadWait != readWait || st.DecodeWork != decodeWork {
		t.Errorf("Stats read wait %v / decode work %v, the handler summed %v / %v", st.ReadWait, st.DecodeWork, readWait, decodeWork)
	}
	if st.WireBytes == 0 || st.Wall <= 0 || st.DecodeWork <= 0 {
		t.Fatalf("snapshot missing accounting: %+v", st)
	}
	// (wait + work − wall) / work over the summed timings, clamped to [0, 1].
	want := min(max(float64(st.ReadWait+st.DecodeWork-st.Wall)/float64(st.DecodeWork), 0), 1)
	if got := st.OverlapRatio(); got != want {
		t.Errorf("OverlapRatio() = %v, want %v", got, want)
	}
}
