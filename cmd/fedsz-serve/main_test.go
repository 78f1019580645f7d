package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/eblctest"
	"repro/internal/flserve"
	"repro/internal/promtext"
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

// TestServeSmoke boots the server on a free port with -trace, uploads three
// updates concurrently, and checks the summary output and the JSONL trace:
// one intact line per event, a conn span per connection and an update event
// per accepted update, whose raw_bytes and ratio give the stream's bytes.
func TestServeSmoke(t *testing.T) {
	ready := make(chan string, 1)
	var out bytes.Buffer
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	// The errCh receive below happens-after serve returns, so reading out
	// afterwards is race-free.
	errCh := make(chan error, 1)
	go func() {
		errCh <- serve(serveOpts{addr: "127.0.0.1:0", parallel: 2, updates: 3, trace: tracePath, ready: ready, out: &out})
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
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	events := map[string]int{}
	stages := map[string]float64{} // stage/codec/dir → the last count
	for _, line := range bytes.Split(bytes.TrimSpace(trace), []byte("\n")) {
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		ev, _ := m["event"].(string)
		events[ev]++
		if ev == "stage" {
			stages[fmt.Sprintf("%v/%v/%v", m["stage"], m["codec"], m["dir"])], _ = m["count"].(float64)
		}
		if ev == "update" {
			// The stream's bytes, raw_bytes / ratio, are the wire bytes less
			// the framing.
			raw, _ := m["raw_bytes"].(float64)
			ratio, _ := m["ratio"].(float64)
			wireBytes, _ := m["wire_bytes"].(float64)
			if stream := raw / ratio; !(ratio > 1) || stream > wireBytes || stream < wireBytes-256 {
				t.Errorf("update event: raw_bytes %v, ratio %v, wire_bytes %v", raw, ratio, wireBytes)
			}
		}
	}
	if events["conn"] != 3 || events["update"] != 3 {
		t.Fatalf("trace has %v, want 3 conn spans and 3 update events", events)
	}
	// The uploads encode in this process too, so both directions have
	// counted by the last connection's end.
	for _, s := range []string{"frame/all/encode", "frame/all/decode", "quantize/sz2/encode",
		"huffman/sz2/encode", "huffman/sz2/decode", "reconstruct/sz2/decode"} {
		if stages[s] < 3 {
			t.Errorf("trace's last %s stage event counts %v, want 3 or more", s, stages[s])
		}
	}
}

// httpGet fetches path from the metrics listener at maddr.
func httpGet(t *testing.T, maddr, path string) string {
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

// wantSample fails unless the scrape holds the unlabelled sample name at
// exactly value.
func wantSample(t *testing.T, body, name string, value float64) {
	t.Helper()
	samples, err := promtext.ParseText([]byte(body))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, body)
	}
	if s, ok := promtext.FindSample(samples, name); !ok || s.Value != value {
		t.Errorf("%s = %+v (ok=%v), want %v", name, s, ok, value)
	}
}

// readmeCatalog parses the metric catalog table of README.md into
// family → "type{label keys}", the form scrapedCatalog reports.
func readmeCatalog(t *testing.T) map[string]string {
	t.Helper()
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "### Metric catalog\n")
	if !ok {
		t.Fatal("README.md has no Metric catalog section")
	}
	table, _, _ = strings.Cut(table, "\n### ")
	ident := regexp.MustCompile("`([a-z_]+)`")
	catalog := map[string]string{}
	for _, row := range strings.Split(table, "\n") {
		cells := strings.Split(row, " | ")
		if len(cells) != 4 || !strings.HasPrefix(cells[0], "| `fedsz_") {
			continue
		}
		var keys []string
		for _, label := range strings.Split(cells[2], ", ") { // `key` or `key`=`a`\|`b`
			if m := ident.FindStringSubmatch(label); m != nil {
				keys = append(keys, m[1])
			}
		}
		sort.Strings(keys)
		for _, m := range ident.FindAllStringSubmatch(cells[0], -1) {
			catalog[m[1]] = cells[1] + "{" + strings.Join(keys, ",") + "}"
		}
	}
	return catalog
}

// scrapedCatalog reduces an exposition to family → "type{label keys}".
func scrapedCatalog(t *testing.T, body string) map[string]string {
	t.Helper()
	types := map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
		}
	}
	samples, err := promtext.ParseText([]byte(body))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, body)
	}
	labels := map[string]map[string]bool{}
	for _, s := range samples {
		family := s.Name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(s.Name, suffix); types[base] == "histogram" {
				family = base
			}
		}
		if labels[family] == nil {
			labels[family] = map[string]bool{}
		}
		for k := range s.Labels {
			labels[family][k] = k != "le"
		}
	}
	catalog := map[string]string{}
	for family, typ := range types {
		var keys []string
		for k, keep := range labels[family] {
			if keep {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		catalog[family] = typ + "{" + strings.Join(keys, ",") + "}"
	}
	return catalog
}

// TestServeMetricsEndpoint runs serve with a metrics listener, pushes one
// update through the ingest path, and scrapes /metrics and /healthz while
// the server is still up. The scrape must count exactly that update — the
// registry is this serve's own — and expose exactly the families, types and
// label keys README's metric catalog documents, so the catalog cannot drift.
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

	if body := httpGet(t, maddr, "/healthz"); body != "ok\n" {
		t.Fatalf("/healthz = %q", body)
	}
	body := httpGet(t, maddr, "/metrics")
	wantSample(t, body, "fedsz_server_updates_total", 1)
	wantSample(t, body, "fedsz_agg_updates_total", 1)
	wantSample(t, body, "fedsz_server_decode_seconds_count", 1)
	documented, scraped := readmeCatalog(t), scrapedCatalog(t, body)
	for family, got := range scraped {
		if want, ok := documented[family]; !ok {
			t.Errorf("/metrics exposes %s %s, which README's metric catalog does not list", family, got)
		} else if got != want {
			t.Errorf("%s is %s on /metrics, %s in README's metric catalog", family, got, want)
		}
	}
	for family, want := range documented {
		if _, ok := scraped[family]; !ok {
			t.Errorf("README's metric catalog lists %s %s, which /metrics does not expose", family, want)
		}
	}

	close(stop)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// TestServeTwoTier wires the CLI pieces into an edge→root tree: a
// root, two edge serves pointed at it with -upstream, five clients split
// across the edges. The root must fold exactly two fused updates whose
// weights sum to the client population — and its /metrics, scraped while it
// is still up, must count exactly those two: the edges in the same process
// fold five client updates into counters of their own.
func TestServeTwoTier(t *testing.T) {
	rootReady := make(chan string, 1)
	rootMetrics := make(chan string, 1)
	rootStop := make(chan struct{})
	var rootOut bytes.Buffer
	rootErr := make(chan error, 1)
	go func() {
		rootErr <- serve(serveOpts{addr: "127.0.0.1:0", metricsAddr: "127.0.0.1:0", parallel: 2, quiet: true,
			ready: rootReady, metricsReady: rootMetrics, stop: rootStop, out: &rootOut})
	}()
	rootMetricsAddr := <-rootMetrics
	rootAddr := <-rootReady

	runEdge := func(id uint32, clients int, seed uint64, out *bytes.Buffer) error {
		ready := make(chan string, 1)
		errCh := make(chan error, 1)
		go func() {
			errCh <- serve(serveOpts{addr: "127.0.0.1:0", parallel: 2, updates: clients, quiet: true,
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
	// An edge returns once the root has acked its flush, so both fused
	// updates are folded and counted by now.
	body := httpGet(t, rootMetricsAddr, "/metrics")
	wantSample(t, body, "fedsz_server_updates_total", 2)
	wantSample(t, body, "fedsz_agg_updates_total", 2)
	close(rootStop)
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

// TestServeDedupsDuplicateUpload is the delivery contract README documents
// (at-least-once + dedup) on the program itself: the same client ID uploading
// twice, the second time on a fresh connection, is acked both times and the
// mean covers one update.
func TestServeDedupsDuplicateUpload(t *testing.T) {
	ready := make(chan string, 1)
	stop := make(chan struct{})
	var out bytes.Buffer
	errCh := make(chan error, 1)
	go func() {
		errCh <- serve(serveOpts{addr: "127.0.0.1:0", parallel: 2, quiet: true, ready: ready, stop: stop, out: &out})
	}()
	addr := <-ready
	uploadN(t, addr, 1, 5) // client 0
	uploadN(t, addr, 1, 5) // client 0 again: a new connection, the retry after a lost ack
	close(stop)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ingested 2 update(s) (0 rejected", "FedAvg mean over 1 update(s)"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestServeForwardRetryFoldsOnce drops the root's first ack on the way back
// to an edge: the edge's upstream client retries on a new connection, the
// root acks again, and its fold holds the fused update once, at weight 3.
func TestServeForwardRetryFoldsOnce(t *testing.T) {
	rootReady := make(chan string, 1)
	rootStop := make(chan struct{})
	var rootOut bytes.Buffer
	rootErr := make(chan error, 1)
	go func() {
		rootErr <- serve(serveOpts{addr: "127.0.0.1:0", parallel: 2, quiet: true, ready: rootReady, stop: rootStop, out: &rootOut})
	}()
	rootAddr := <-rootReady

	// The lossy hop: connection 0 carries the upload to the root, waits for
	// the ack and discards it; later connections pass both ways.
	proxy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	var conns atomic.Int32
	go func() {
		for {
			down, err := proxy.Accept()
			if err != nil {
				return
			}
			dropAck := conns.Add(1) == 1
			go func() {
				defer down.Close()
				up, err := net.Dial("tcp", rootAddr)
				if err != nil {
					return
				}
				defer up.Close()
				go func() {
					io.Copy(up, down)
					up.(*net.TCPConn).CloseWrite() // the edge hung up: so does the hop
				}()
				if dropAck {
					up.Read(make([]byte, 1))
					return
				}
				io.Copy(down, up)
			}()
		}
	}()

	edgeReady := make(chan string, 1)
	var edgeOut bytes.Buffer
	edgeErr := make(chan error, 1)
	go func() {
		edgeErr <- serve(serveOpts{addr: "127.0.0.1:0", parallel: 2, updates: 3, quiet: true,
			upstream: proxy.Addr().String(), edgeID: 1000, ready: edgeReady, out: &edgeOut})
	}()
	uploadN(t, <-edgeReady, 3, 11)
	if err := <-edgeErr; err != nil {
		t.Fatalf("edge: %v", err)
	}
	close(rootStop)
	if err := <-rootErr; err != nil {
		t.Fatalf("root: %v", err)
	}
	if n := conns.Load(); n != 2 {
		t.Fatalf("the edge dialled upstream %d time(s), want 2 (upload, then the retry)", n)
	}
	if !strings.Contains(edgeOut.String(), "(weight 3)") {
		t.Fatalf("edge did not forward weight 3:\n%s", edgeOut.String())
	}
	for _, want := range []string{"ingested 2 update(s) (0 rejected", "FedAvg mean over 1 update(s)"} {
		if !strings.Contains(rootOut.String(), want) {
			t.Fatalf("root summary missing %q:\n%s", want, rootOut.String())
		}
	}
}
