package main

import (
	"bytes"
	"context"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/eblctest"
	"repro/internal/flserve"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// uploadN compresses n single-tensor updates and uploads them concurrently.
func uploadN(t *testing.T, addr string, n int, seed uint64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed+1))
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		sd := tensor.NewStateDict()
		sd.Add("w.weight", tensor.KindWeight, tensor.FromData(eblctest.WeightLike(rng, 2048), 2048))
		stream, _, err := core.Compress(sd, core.Options{LossyParams: ebcl.Rel(1e-2)})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, stream []byte) {
			defer wg.Done()
			errs[i] = (&flserve.Client{Addr: addr}).Upload(context.Background(), uint32(i), stream)
		}(i, stream)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
	}
}

// TestServeSmoke boots the server on a free port, uploads three updates
// concurrently, and checks the summary output.
func TestServeSmoke(t *testing.T) {
	ready := make(chan string, 1)
	var out bytes.Buffer
	// The errCh receive below happens-after serve returns, so reading out
	// afterwards is race-free.
	errCh := make(chan error, 1)
	go func() {
		errCh <- serve(serveOpts{addr: "127.0.0.1:0", parallel: 2, updates: 3, ready: ready, out: &out})
	}()
	addr := <-ready
	uploadN(t, addr, 3, 3)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	output := out.String()
	for _, want := range []string{
		"listening on", "ingested 3 update(s)", "overlap ratio", "FedAvg mean over 3",
		// slog per-update lines with client/remote attrs
		`msg=update`, `client=`, `remote=127.0.0.1:`, `wire_bytes=`,
	} {
		if !strings.Contains(output, want) {
			t.Fatalf("output missing %q:\n%s", want, output)
		}
	}
}

// TestServeMetricsEndpoint runs serve with a metrics listener, pushes one
// update through the ingest path, and scrapes /metrics and /healthz while
// the server is still up.
func TestServeMetricsEndpoint(t *testing.T) {
	ready := make(chan string, 1)
	metricsReady := make(chan string, 1)
	stop := make(chan struct{})
	var out bytes.Buffer
	errCh := make(chan error, 1)
	go func() {
		errCh <- serve(serveOpts{
			addr:         "127.0.0.1:0",
			metricsAddr:  "127.0.0.1:0",
			quiet:        true,
			ready:        ready,
			metricsReady: metricsReady,
			stop:         stop,
			out:          &out,
		})
	}()
	maddr := <-metricsReady
	addr := <-ready
	uploadN(t, addr, 1, 7)

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + maddr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if body := get("/healthz"); body != "ok\n" {
		t.Fatalf("/healthz = %q", body)
	}
	body := get("/metrics")
	samples, err := telemetry.ParseText([]byte(body))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, body)
	}
	for _, name := range []string{
		"fedsz_server_connections_accepted_total",
		"fedsz_server_updates_total",
		"fedsz_server_wire_bytes_total",
		"fedsz_server_decode_seconds_count",
		"fedsz_server_overlap_ratio_count",
		"fedsz_pool_hits_total",
		"fedsz_pool_recycled_bytes_total",
		"fedsz_decode_seconds_count",
	} {
		if _, ok := telemetry.FindSample(samples, name); !ok {
			t.Errorf("/metrics missing %s", name)
		}
	}
	// The process-wide counters are shared across tests, so assert a lower
	// bound rather than equality.
	if s, ok := telemetry.FindSample(samples, "fedsz_server_updates_total"); !ok || s.Value < 1 {
		t.Fatalf("fedsz_server_updates_total = %+v (ok=%v), want >= 1", s, ok)
	}

	close(stop)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// TestServeTwoTier wires the CLI pieces into an edge→root tree: a sharded
// root, two edge serves pointed at it with -upstream, five clients split
// across the edges. The root must fold exactly two fused updates whose
// weights sum to the client population.
func TestServeTwoTier(t *testing.T) {
	rootReady := make(chan string, 1)
	var rootOut bytes.Buffer
	rootErr := make(chan error, 1)
	go func() {
		rootErr <- serve(serveOpts{addr: "127.0.0.1:0", parallel: 2, shards: 2, updates: 2, quiet: true, ready: rootReady, out: &rootOut})
	}()
	rootAddr := <-rootReady

	runEdge := func(id uint32, clients int, seed uint64, out *bytes.Buffer) error {
		ready := make(chan string, 1)
		errCh := make(chan error, 1)
		go func() {
			errCh <- serve(serveOpts{addr: "127.0.0.1:0", parallel: 2, shards: 2, updates: clients, quiet: true,
				upstream: rootAddr, edgeID: id, ready: ready, out: out})
		}()
		uploadN(t, <-ready, clients, seed)
		return <-errCh
	}
	var outA, outB bytes.Buffer
	if err := runEdge(1000, 3, 11, &outA); err != nil {
		t.Fatalf("edge A: %v", err)
	}
	if err := runEdge(1001, 2, 13, &outB); err != nil {
		t.Fatalf("edge B: %v", err)
	}
	if err := <-rootErr; err != nil {
		t.Fatalf("root: %v", err)
	}
	for name, out := range map[string]*bytes.Buffer{"edge A": &outA, "edge B": &outB} {
		if !strings.Contains(out.String(), "forwarded fused update to "+rootAddr) {
			t.Fatalf("%s did not forward upstream:\n%s", name, out.String())
		}
	}
	if !strings.Contains(outA.String(), "(weight 3)") || !strings.Contains(outB.String(), "(weight 2)") {
		t.Fatalf("edge weights wrong:\nA: %s\nB: %s", outA.String(), outB.String())
	}
	if !strings.Contains(rootOut.String(), "ingested 2 update(s)") ||
		!strings.Contains(rootOut.String(), "FedAvg mean over 2") {
		t.Fatalf("root summary wrong:\n%s", rootOut.String())
	}
}
