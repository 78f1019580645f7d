// Command fedsz-bench regenerates the tables and figures of the FedSZ paper
// (Wilkins et al., IPDPS 2024) from this module's from-scratch
// implementation, and simulates the aggregation-server ingest path that
// motivates the paper's Equation 1.
//
// Usage:
//
//	fedsz-bench                  # run every experiment at quick fidelity
//	fedsz-bench -run fig8        # run one experiment
//	fedsz-bench -run table1,fig4 # run a comma-separated subset
//	fedsz-bench -full            # high-fidelity settings (slower)
//	fedsz-bench -list            # list experiment IDs
//
// Server-ingest simulation (batched decode, paper Eqn 1):
//
//	fedsz-bench -clients 64 -parallel 8      # 64 client streams, 8-way budget
//	fedsz-bench -clients 64 -rounds 5 -scale 0.05
//
// One process stands in for an aggregation server receiving N concurrent
// client streams per round; it reports per-round decode wall time and
// throughput for a serial decoder versus the shared-pool parallel decoder,
// plus the Eqn-1 compress/don't-compress decision on a constrained link.
//
// Streaming ingest over real sockets (decode-while-receiving):
//
//	fedsz-bench -serve -clients 32                # loopback server + 32 uploads
//	fedsz-bench -serve -clients 32 -mbps 100      # throttle each uplink to 100 Mbps
//	fedsz-bench -serve -clients 32 -upload host:9464  # upload to a running fedsz-serve
//
// Unlike -clients alone (in-memory byte slices), -serve moves every update
// through the internal/wire framing and a TCP socket into the streaming
// aggregation server, and reports updates/s, bytes/s, and the
// decode/receive overlap ratio against the serial and batched in-memory
// baselines.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/experiments"
	"repro/internal/flserve"
	"repro/internal/netsim"
	"repro/internal/nn/models"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

func main() {
	var (
		runIDs   = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		full     = flag.Bool("full", false, "high-fidelity configuration (slower)")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		seed     = flag.Uint64("seed", 1, "base seed for synthetic data and training")
		clients  = flag.Int("clients", 0, "simulate an aggregation server ingesting N client streams (0 = run experiments instead)")
		parallel = flag.Int("parallel", 0, "decode parallelism budget shared across the batch (0 = GOMAXPROCS)")
		rounds   = flag.Int("rounds", 3, "ingest rounds to simulate (with -clients)")
		scale    = flag.Float64("scale", 0.05, "model profile scale (with -clients)")
		model    = flag.String("model", "alexnet", "profile model for client updates (with -clients)")
		serve    = flag.Bool("serve", false, "stream the client updates over TCP into the flserve aggregation server (with -clients)")
		mbps     = flag.Float64("mbps", 0, "throttle each client uplink to this bandwidth (with -serve; 0 = unthrottled)")
		upload   = flag.String("upload", "", "upload to an external fedsz-serve at this address instead of an in-process server (with -serve)")
		jsonOut  = flag.String("json", "", "measure the entropy stage + SZ2/SZ3 codec paths and write a machine-readable perf snapshot to this path ('-' for stdout)")
		baseline = flag.String("baseline", "", "diff the -json snapshot against this committed baseline's schema (fields present, no NaNs)")
		tracePth = flag.String("trace", "", "write JSONL trace events (phase spans, per-connection/update events) to this path ('-' for stderr)")
	)
	flag.Parse()

	var tracer *telemetry.Tracer
	if *tracePth != "" {
		tw := io.Writer(os.Stderr)
		if *tracePth != "-" {
			f, err := os.Create(*tracePth)
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			tw = f
		}
		tracer = telemetry.NewTracer(tw)
		defer func() {
			if err := tracer.Err(); err != nil {
				fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			}
		}()
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	if *jsonOut != "" {
		if err := runPerfSnapshot(os.Stdout, *jsonOut, *baseline); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *serve {
		if *clients <= 0 {
			*clients = 32
		}
		if err := runStreamSim(os.Stdout, *clients, *parallel, *mbps, *model, *scale, *seed, *upload, tracer); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *clients > 0 {
		if err := runServerSim(os.Stdout, *clients, *parallel, *rounds, *model, *scale, *seed, tracer); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := experiments.QuickConfig()
	if *full {
		cfg = experiments.FullConfig()
	}
	cfg.Seed = *seed

	var ids []string
	if *runIDs == "" {
		ids = experiments.IDs()
	} else {
		ids = strings.Split(*runIDs, ",")
	}

	mode := "quick"
	if *full {
		mode = "full"
	}
	fmt.Printf("FedSZ reproduction harness — %d experiment(s), %s mode, seed %d\n\n", len(ids), mode, cfg.Seed)

	failed := 0
	for _, id := range ids {
		id = strings.TrimSpace(id)
		gen, err := experiments.Get(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			failed++
			continue
		}
		t0 := time.Now()
		table, err := gen(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %s: %v\n", id, err)
			failed++
			continue
		}
		fmt.Println(table.Render())
		fmt.Printf("(%s generated in %v)\n\n", id, time.Since(t0).Round(time.Millisecond))
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// buildUpdates synthesizes per-client updates (same architecture,
// different weights, like a real round's worth of deltas) and their
// compressed streams.
func buildUpdates(nClients int, model string, scale float64, seed uint64, parallelism int) (updates []*tensor.StateDict, streams [][]byte, rawBytes, wireBytes int, err error) {
	updates = make([]*tensor.StateDict, nClients)
	for i := range updates {
		rng := rand.New(rand.NewPCG(seed, uint64(i)+1))
		sd, err := models.BuildProfile(model, rng, scale)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		updates[i] = sd
		rawBytes += sd.SizeBytes()
	}
	streams, _, err = core.CompressAll(context.Background(), sched.NewPool(parallelism), updates, core.Options{LossyParams: ebcl.Rel(1e-2)})
	if err != nil {
		return nil, nil, 0, 0, err
	}
	for _, s := range streams {
		wireBytes += len(s)
	}
	return updates, streams, rawBytes, wireBytes, nil
}

// runStreamSim measures the full streaming ingest path — wire framing,
// TCP loopback, decode-while-receiving, incremental FedAvg fold — against
// the serial and batched in-memory decoders on the same payloads.
func runStreamSim(w io.Writer, nClients, parallelism int, mbps float64, model string, scale float64, seed uint64, uploadAddr string, tracer *telemetry.Tracer) error {
	buildSpan := tracer.Span("build_updates", telemetry.A("clients", nClients), telemetry.A("model", model))
	updates, streams, rawBytes, wireBytes, err := buildUpdates(nClients, model, scale, seed, parallelism)
	buildSpan.End(telemetry.A("raw_bytes", rawBytes), telemetry.A("wire_bytes", wireBytes))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "streaming ingest: %d clients × %s profile (scale %g)\n", nClients, model, scale)
	fmt.Fprintf(w, "raw %d B -> wire %d B (ratio %.2fx)\n\n", rawBytes, wireBytes, float64(rawBytes)/float64(wireBytes))

	report := func(label string, dur time.Duration, note string) {
		fmt.Fprintf(w, "%-14s %-14v %10.1f updates/s %10.1f MB/s (raw) %s\n",
			label, dur.Round(time.Microsecond),
			float64(nClients)/dur.Seconds(), float64(rawBytes)/dur.Seconds()/1e6, note)
	}

	// In-memory baselines: the PR-1 batched path at budget 1 and at the
	// requested budget.
	for _, mode := range []struct {
		label string
		par   int
	}{
		{"serial", 1},
		{fmt.Sprintf("batched(%d)", sched.NewPool(parallelism).Parallelism()), parallelism},
	} {
		sp := tracer.Span("baseline_decode", telemetry.A("mode", mode.label))
		t0 := time.Now()
		if _, _, err := core.DecompressAll(context.Background(), sched.NewPool(mode.par), streams, core.DecodeOptions{}); err != nil {
			return err
		}
		sp.End()
		report(mode.label, time.Since(t0), "")
	}

	// Streaming path: wire frames over TCP into the aggregation server.
	addr := uploadAddr
	var srv *flserve.Server
	fold := agg.New(agg.Config{Pool: sched.NewPool(parallelism)})
	if addr == "" {
		srv, err = flserve.Listen("127.0.0.1:0", flserve.Config{Ingestor: fold, Tracer: tracer})
		if err != nil {
			return err
		}
		addr = srv.Addr().String()
	}
	uploadSpan := tracer.Span("stream_upload", telemetry.A("clients", nClients), telemetry.A("mbps", mbps))
	link := netsim.Link{BandwidthMbps: mbps}
	errs := make([]error, nClients)
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, s := range streams {
		wg.Add(1)
		go func(i int, s []byte) {
			defer wg.Done()
			c := &flserve.Client{Addr: addr, Link: link}
			errs[i] = c.Upload(context.Background(), uint32(i), s)
		}(i, s)
	}
	wg.Wait()
	dur := time.Since(t0)
	uploadSpan.End()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("client %d upload: %w", i, err)
		}
	}
	if srv == nil {
		report("upload", dur, fmt.Sprintf("(remote %s; see its summary for overlap)", uploadAddr))
		return nil
	}
	if err := srv.Close(); err != nil {
		return err
	}
	st := srv.Stats()
	note := fmt.Sprintf("overlap %.2f", st.OverlapRatio())
	if mbps > 0 {
		note += fmt.Sprintf(" @ %g Mbps/client", mbps)
	}
	report("streamed", dur, note)
	if n := fold.Count(); n != nClients {
		return fmt.Errorf("aggregated %d of %d updates", n, nClients)
	}
	fmt.Fprintf(w, "\ndecode work %v, read wait %v across %d connections\n",
		st.DecodeWork.Round(time.Microsecond), st.ReadWait.Round(time.Microsecond), st.Updates)
	fmt.Fprintf(w, "overlap ratio %.2f: fraction of decode hidden behind receive\n", st.OverlapRatio())

	// Streaming *encode* path: each client compresses straight into its
	// socket (core.CompressSections → wire frames), so upload overlaps the
	// encode — the client-side mirror of the server's overlap above.
	fold.Reset()
	srv2, err := flserve.Listen("127.0.0.1:0", flserve.Config{Ingestor: fold, Tracer: tracer})
	if err != nil {
		return err
	}
	encSpan := tracer.Span("stream_encode_upload", telemetry.A("clients", nClients))
	// Each client encodes on a pool with at least one helper so section
	// writes can overlap later tensors' compression even on 1-CPU hosts
	// (a helper compresses while the caller sleeps in the throttled
	// write; a serial pool would compress inline, strictly before writes).
	encPool := sched.NewPool(max(2, sched.NewPool(parallelism).Parallelism()))
	encOverlap := make([]float64, nClients)
	errs = make([]error, nClients)
	t0 = time.Now()
	for i, sd := range updates {
		wg.Add(1)
		go func(i int, sd *tensor.StateDict) {
			defer wg.Done()
			c := &flserve.Client{Addr: srv2.Addr().String(), Link: link}
			stats, err := c.UploadState(context.Background(), uint32(i), sd,
				core.Options{LossyParams: ebcl.Rel(1e-2)}, encPool)
			if err != nil {
				errs[i] = err
				return
			}
			encOverlap[i] = stats.EncodeOverlapRatio()
		}(i, sd)
	}
	wg.Wait()
	dur = time.Since(t0)
	encSpan.End()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("client %d streaming-encode upload: %w", i, err)
		}
	}
	if err := srv2.Close(); err != nil {
		return err
	}
	meanEnc := 0.0
	for _, r := range encOverlap {
		meanEnc += r / float64(nClients)
	}
	report("stream-enc", dur, fmt.Sprintf("encode overlap %.2f (client side, compress-while-send)", meanEnc))
	if n := fold.Count(); n != nClients {
		return fmt.Errorf("stream-enc aggregated %d of %d updates", n, nClients)
	}
	return nil
}

// runServerSim plays one process as the aggregation server of the paper's
// Eqn-1 scenario: nClients updates arrive each round and must be decoded
// before FedAvg can aggregate. It compares the serial seed-style decoder
// against the shared-pool batched decoder at the requested budget.
func runServerSim(w io.Writer, nClients, parallelism, rounds int, model string, scale float64, seed uint64, tracer *telemetry.Tracer) error {
	// Synthesize per-client updates: same architecture, different weights,
	// like a real round's worth of client deltas.
	updates := make([]*tensor.StateDict, nClients)
	for i := range updates {
		rng := rand.New(rand.NewPCG(seed, uint64(i)+1))
		sd, err := models.BuildProfile(model, rng, scale)
		if err != nil {
			return err
		}
		updates[i] = sd
	}
	rawBytes := 0
	for _, sd := range updates {
		rawBytes += sd.SizeBytes()
	}

	compressSpan := tracer.Span("batch_compress", telemetry.A("clients", nClients), telemetry.A("model", model))
	t0 := time.Now()
	streams, _, err := core.CompressAll(context.Background(), sched.NewPool(parallelism), updates, core.Options{LossyParams: ebcl.Rel(1e-2)})
	if err != nil {
		return err
	}
	tC := time.Since(t0)
	compressSpan.End(telemetry.A("raw_bytes", rawBytes))
	wireBytes := 0
	for _, s := range streams {
		wireBytes += len(s)
	}

	fmt.Fprintf(w, "server ingest simulation: %d clients × %s profile (scale %g)\n", nClients, model, scale)
	fmt.Fprintf(w, "raw %d B -> wire %d B (ratio %.2fx), batch compress %v\n\n",
		rawBytes, wireBytes, float64(rawBytes)/float64(wireBytes), tC.Round(time.Millisecond))

	fmt.Fprintf(w, "%-10s %-8s %-14s %-14s %-12s\n", "decoder", "round", "decode time", "streams/s", "MB/s (raw)")
	for _, mode := range []struct {
		label string
		par   int
	}{
		{"serial", 1},
		{fmt.Sprintf("pool(%d)", sched.NewPool(parallelism).Parallelism()), parallelism},
	} {
		for r := 0; r < rounds; r++ {
			sp := tracer.Span("decode_round", telemetry.A("mode", mode.label), telemetry.A("round", r))
			t0 := time.Now()
			decoded, _, err := core.DecompressAll(context.Background(), sched.NewPool(mode.par), streams, core.DecodeOptions{})
			if err != nil {
				return err
			}
			dur := time.Since(t0)
			sp.End(telemetry.A("streams", len(decoded)))
			if len(decoded) != nClients {
				return fmt.Errorf("decoded %d of %d streams", len(decoded), nClients)
			}
			fmt.Fprintf(w, "%-10s %-8d %-14v %-14.1f %-12.1f\n",
				mode.label, r, dur.Round(time.Microsecond),
				float64(nClients)/dur.Seconds(),
				float64(rawBytes)/dur.Seconds()/1e6)
		}
	}

	// Eqn 1 on the edge uplink: does compression pay off per client? The
	// per-client tC/tD are measured on a single update/stream — an edge
	// client compresses alone and cannot amortize the batch parallelism,
	// so dividing the batch wall time by N would understate its cost.
	t0 = time.Now()
	if _, _, err := core.Compress(updates[0], core.Options{LossyParams: ebcl.Rel(1e-2)}); err != nil {
		return err
	}
	tC1 := time.Since(t0)
	t0 = time.Now()
	if _, _, err := core.Decompress(streams[0]); err != nil {
		return err
	}
	tD1 := time.Since(t0)
	perClientRaw := rawBytes / nClients
	perClientWire := wireBytes / nClients
	link := netsim.EdgeLink
	dec := netsim.ShouldCompress(tC1, tD1, perClientRaw, perClientWire, link)
	fmt.Fprintf(w, "\nEqn 1 @ %.0f Mbps: compress=%v (compressed %v vs raw %v per client)\n",
		link.BandwidthMbps, dec.Compress,
		dec.CompressedTime.Round(time.Microsecond), dec.UncompressedTime.Round(time.Microsecond))
	return nil
}
