package flserve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// gaugeIngestor wraps an ingestor: it records which goroutines served
// updates and the most updates in flight at once, and holds each update
// until gate is closed.
type gaugeIngestor struct {
	inner StreamIngestor
	gate  chan struct{}

	mu        sync.Mutex
	now, peak int
	served    map[uint64]bool // goroutine IDs
}

func (g *gaugeIngestor) IngestStream(ctx context.Context, client uint32, w float64, dopts core.DecodeOptions, r io.Reader) (int64, core.DecompressStats, error) {
	g.mu.Lock()
	g.now++
	g.peak = max(g.peak, g.now)
	g.served[goroutineID()] = true
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		g.now--
		g.mu.Unlock()
	}()
	<-g.gate
	return g.inner.IngestStream(ctx, client, w, dopts, r)
}

func (g *gaugeIngestor) stats() (peak, goroutines int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peak, len(g.served)
}

// goroutineID is the calling goroutine's ID, read off its stack header
// ("goroutine 42 [running]:").
func goroutineID() uint64 {
	var buf [64]byte
	f := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	id, err := strconv.ParseUint(string(f[1]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// waitGoroutines polls until at most n goroutines run, and fails t after
// five seconds.
func waitGoroutines(t *testing.T, n int, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want at most %d", what, runtime.NumGoroutine(), n)
		}
	}
}

// TestResidentWorkers: a server serves every connection on one of MaxConns
// goroutines it keeps for its whole life. 200 sequential connections are
// served by at most MaxConns goroutines and leave the goroutine count where
// it started; a burst of 3×MaxConns uploads held in the Ingestor never has
// more than MaxConns in flight, and with a queue exactly MaxConns +
// QueueDepth of them are admitted, the rest shed; after Close the count is
// back to what it was before the server.
func TestResidentWorkers(t *testing.T) {
	const maxConns = 3
	streams, _ := compressUpdates(t, 1)
	for _, depth := range []int{0, 2} {
		t.Run(fmt.Sprintf("QueueDepth=%d", depth), func(t *testing.T) {
			before := runtime.NumGoroutine()
			g := &gaugeIngestor{inner: newCollector(), gate: make(chan struct{}), served: map[uint64]bool{}}
			close(g.gate)
			srv, err := Listen("127.0.0.1:0", Config{Ingestor: g, MaxConns: maxConns, QueueDepth: depth, RetryAfterHint: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			c := &Client{Addr: srv.Addr().String()}
			started := runtime.NumGoroutine()
			for i := range 200 {
				if err := c.Upload(context.Background(), uint32(i), streams[0]); err != nil {
					t.Fatalf("sequential upload %d: %v", i, err)
				}
			}
			if _, n := g.stats(); n > maxConns {
				t.Errorf("200 sequential connections served by %d goroutines, want at most %d", n, maxConns)
			}
			waitGoroutines(t, started, "after 200 sequential connections")

			// The burst, staged: MaxConns uploads one at a time, each held in
			// the Ingestor before the next is dialed, so every worker is
			// taken whatever the sequential connections' teardown still
			// holds; then the rest at once, which with a queue fill it and
			// are shed, since no worker is free to drain it.
			g.gate = make(chan struct{})
			const burst = 3 * maxConns
			errs := make([]error, burst)
			var wg sync.WaitGroup
			upload := func(i int) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = c.Upload(context.Background(), uint32(1000+i), streams[0])
				}()
			}
			waitFor := func(what string, done func() bool) {
				t.Helper()
				for deadline := time.Now().Add(5 * time.Second); !done(); time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal(what)
					}
				}
			}
			for i := range maxConns {
				upload(i)
				waitFor(fmt.Sprintf("burst never filled the workers (upload %d not in flight)", i), func() bool {
					peak, _ := g.stats()
					return peak > i
				})
			}
			for i := maxConns; i < burst; i++ {
				upload(i)
			}
			if depth > 0 {
				waitFor("the burst's admissions were never all decided", func() bool {
					return srv.m.connsAccepted.Value() >= 200+burst
				})
			}
			// Until the gate opens the served uploads stay in flight; give
			// any excess time to show.
			time.Sleep(50 * time.Millisecond)
			close(g.gate)
			wg.Wait()
			if peak, _ := g.stats(); peak != maxConns {
				t.Errorf("%d updates in flight at once, want %d", peak, maxConns)
			}
			shed := 0
			for i, err := range errs {
				switch {
				case err == nil:
				case depth > 0 && errors.Is(err, ErrShed):
					shed++
				default:
					t.Fatalf("burst upload %d: %v", i, err)
				}
			}
			if depth > 0 && burst-shed != maxConns+depth {
				t.Errorf("%d of %d burst uploads admitted, want exactly %d", burst-shed, burst, maxConns+depth)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			waitGoroutines(t, before, "after Close")
		})
	}
}
