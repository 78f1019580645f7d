// Command fedsz-bench regenerates the tables and figures of the FedSZ paper
// (Wilkins et al., IPDPS 2024) from this module's from-scratch
// implementation, and doubles as the repo's CLI upload client / loopback
// load generator for the streaming aggregation server.
//
// Usage:
//
//	fedsz-bench                  # run every experiment at quick fidelity
//	fedsz-bench -run fig8        # run one experiment
//	fedsz-bench -run table1,fig4 # run a comma-separated subset
//	fedsz-bench -full            # high-fidelity settings (slower)
//	fedsz-bench -list            # list experiment IDs
//
// Streaming ingest over real sockets (decode-while-receiving):
//
//	fedsz-bench -serve -clients 32                # loopback server + 32 uploads
//	fedsz-bench -serve -clients 32 -mbps 100      # throttle each uplink to 100 Mbps
//	fedsz-bench -serve -clients 32 -upload host:9464  # upload to a running fedsz-serve
//
// The socket sim moves every update through the internal/wire framing and a
// TCP socket into the streaming aggregation server, and reports updates/s,
// bytes/s, and the decode/receive overlap ratio against the serial and
// batched in-memory decoders on the same payloads. The paper's Eqn-1
// compress/don't-compress decision is the eqn1 experiment (-run eqn1).
// Performance is measured by bench/ (see BENCHMARK.json), not here.
package main

import (
	"context"
	"errors"
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

// config is the parsed command line. clients > 0 means the socket sim runs
// (with that many clients); otherwise the experiments do.
type config struct {
	runIDs     string
	full, list bool
	seed       uint64
	clients    int
	parallel   int
	scale      float64
	model      string
	mbps       float64
	upload     string
	trace      string
}

// parseArgs parses the command line and resolves the mode: -serve or
// -clients N > 0 selects the socket sim; a sim-only flag without either is
// a usage error rather than a silently ignored setting on a minutes-long
// experiment run.
func parseArgs(args []string, out io.Writer) (config, error) {
	var c config
	var serve bool
	fs := flag.NewFlagSet("fedsz-bench", flag.ContinueOnError)
	fs.SetOutput(out)
	// sim marks a flag as read by the socket sim alone, where it is registered.
	simOnly := map[string]bool{}
	sim := func(name string) string { simOnly[name] = true; return name }
	fs.StringVar(&c.runIDs, "run", "", "comma-separated experiment IDs (default: all)")
	fs.BoolVar(&c.full, "full", false, "high-fidelity configuration (slower)")
	fs.BoolVar(&c.list, "list", false, "list experiment IDs and exit")
	fs.Uint64Var(&c.seed, "seed", 1, "base seed for synthetic data and training")
	fs.BoolVar(&serve, "serve", false, "socket sim: stream client updates over TCP into the flserve aggregation server (32 clients unless -clients says otherwise)")
	fs.IntVar(&c.clients, "clients", 0, "socket sim with N client streams, as -serve (0 = run experiments; the Eqn-1 decision is -run eqn1)")
	fs.IntVar(&c.parallel, sim("parallel"), 0, "decode parallelism budget shared across the batch (with -serve; 0 = GOMAXPROCS)")
	fs.Float64Var(&c.scale, sim("scale"), 0.05, "model profile scale (with -serve)")
	fs.StringVar(&c.model, sim("model"), "alexnet", "profile model for client updates (with -serve)")
	fs.Float64Var(&c.mbps, sim("mbps"), 0, "throttle each client uplink to this bandwidth (with -serve; 0 = unthrottled)")
	fs.StringVar(&c.upload, sim("upload"), "", "upload to an external fedsz-serve at this address instead of an in-process server (with -serve)")
	fs.StringVar(&c.trace, sim("trace"), "", "write JSONL trace events (phase spans, per-connection/update events) to this path (with -serve; '-' for stderr)")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if serve && c.clients <= 0 {
		c.clients = 32
	}
	if c.clients <= 0 {
		var err error
		fs.Visit(func(f *flag.Flag) {
			if simOnly[f.Name] && err == nil {
				err = fmt.Errorf("-%s only applies to the socket sim; add -serve (or -clients N)", f.Name)
				fmt.Fprintf(out, "fedsz-bench: %v\n", err)
			}
		})
		return c, err
	}
	return c, nil
}

func main() {
	c, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}

	if c.list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	if c.clients > 0 {
		if err := runTracedStreamSim(c); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := experiments.QuickConfig()
	if c.full {
		cfg = experiments.FullConfig()
	}
	cfg.Seed = c.seed

	var ids []string
	if c.runIDs == "" {
		ids = experiments.IDs()
	} else {
		ids = strings.Split(c.runIDs, ",")
	}

	mode := "quick"
	if c.full {
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

// runTracedStreamSim runs the socket sim with the -trace sink, if any, open
// around it.
func runTracedStreamSim(c config) error {
	var tracer *telemetry.Tracer
	if c.trace != "" {
		tw := io.Writer(os.Stderr)
		if c.trace != "-" {
			f, err := os.Create(c.trace)
			if err != nil {
				return err
			}
			defer f.Close()
			tw = f
		}
		tracer = telemetry.NewTracer(tw)
	}
	err := runStreamSim(os.Stdout, c.clients, c.parallel, c.mbps, c.model, c.scale, c.seed, c.upload, tracer)
	if terr := tracer.Err(); terr != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", terr)
	}
	return err
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
	st := srv.Snapshot()
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
