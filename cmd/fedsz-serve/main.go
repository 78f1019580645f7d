// Command fedsz-serve runs the streaming FedSZ aggregation server: it
// listens on a TCP address, ingests wire-framed compressed client updates
// over concurrent connections (decoding each tensor while the next is
// still arriving), folds them incrementally into a FedAvg mean, and
// reports ingest throughput and the decode/receive overlap ratio.
//
// Usage:
//
//	fedsz-serve                          # listen on 127.0.0.1:9464 until interrupted
//	fedsz-serve -addr :9000 -parallel 8  # custom port, 8-way decode budget
//	fedsz-serve -updates 64              # exit after 64 updates, print summary
//	fedsz-serve -metrics-addr :9465      # expose /metrics, /healthz, /debug/pprof
//	fedsz-serve -trace trace.jsonl       # one JSON line per connection and update
//
// Pair it with the CLI upload client:
//
//	fedsz-serve -updates 32 &
//	fedsz-bench -clients 32 -upload 127.0.0.1:9464
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/flserve"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:9464", "TCP listen address")
		metricsAddr = flag.String("metrics-addr", "", "HTTP listen address for /metrics, /healthz and /debug/pprof (empty = disabled)")
		parallel    = flag.Int("parallel", 0, "decode budget shared across connections (0 = GOMAXPROCS)")
		maxConns    = flag.Int("max-conns", 0, "concurrent connection cap (0 = 4×GOMAXPROCS)")
		updates     = flag.Int("updates", 0, "exit after N ingested updates (0 = run until interrupted)")
		quiet       = flag.Bool("quiet", false, "suppress the per-update log lines")
		upTO        = flag.Duration("upload-timeout", 0, "per-update deadline: clientID through ack (0 = no bound)")
		queueDepth  = flag.Int("queue-depth", 0, "admission-control ingest queue; connections beyond max-conns+queue are shed (0 = block, never shed)")
		upstream    = flag.String("upstream", "", "run as an edge: after the run, forward the fused weighted mean to this root address")
		edgeID      = flag.Uint("edge-id", 1, "client ID used on the upstream hop (with -upstream)")
		trace       = flag.String("trace", "", "write JSONL trace events (one span per connection, one event per update) to this path ('-' for stderr)")
	)
	flag.Parse()

	stop := make(chan struct{})
	if *updates == 0 {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			close(stop)
		}()
	}
	o := serveOpts{
		addr:          *addr,
		metricsAddr:   *metricsAddr,
		parallel:      *parallel,
		maxConns:      *maxConns,
		updates:       *updates,
		uploadTimeout: *upTO,
		quiet:         *quiet,
		queueDepth:    *queueDepth,
		upstream:      *upstream,
		edgeID:        uint32(*edgeID),
		trace:         *trace,
		stop:          stop,
		out:           os.Stdout,
	}
	if err := serve(o); err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		os.Exit(1)
	}
}

// serveOpts carries the wiring for one serve run. ready and metricsReady,
// when non-nil, receive the bound addresses once the listeners are up (the
// test hooks for ":0" addresses).
type serveOpts struct {
	addr          string
	metricsAddr   string
	parallel      int
	maxConns      int
	updates       int
	uploadTimeout time.Duration
	quiet         bool
	queueDepth    int
	upstream      string
	edgeID        uint32
	trace         string
	ready         chan<- string
	metricsReady  chan<- string
	stop          <-chan struct{}
	out           io.Writer
}

// serve runs the server until opts.updates have been ingested (when > 0)
// or opts.stop closes.
func serve(o serveOpts) error {
	// The registry is this run's alone: the server and aggregator created
	// below attach their own counters to it, so a second serve in the process
	// (an edge beside its root) scrapes separately.
	var reg *telemetry.Registry
	if o.metricsAddr != "" {
		reg = telemetry.NewRegistry()
		ln, err := net.Listen("tcp", o.metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		hs := &http.Server{Handler: telemetry.NewHTTPHandler(reg)}
		go hs.Serve(ln)
		defer hs.Close()
		fmt.Fprintf(o.out, "metrics on http://%s/metrics\n", ln.Addr())
		if o.metricsReady != nil {
			o.metricsReady <- ln.Addr().String()
		}
	}

	done := make(chan struct{})
	var once sync.Once
	var count atomic.Int64
	countUpdate := func() {
		if o.updates > 0 && count.Add(1) >= int64(o.updates) {
			once.Do(func() { close(done) })
		}
	}
	// slog serializes its own writes, so the handler needs no extra lock
	// around the shared writer.
	logger := slog.New(slog.NewTextHandler(o.out, nil))

	cfg := flserve.Config{MaxConns: o.maxConns, UploadTimeout: o.uploadTimeout, QueueDepth: o.queueDepth}
	if o.trace != "" {
		tw, closeTrace := io.Writer(os.Stderr), func() error { return nil }
		if o.trace != "-" {
			f, err := os.Create(o.trace)
			if err != nil {
				return err
			}
			tw, closeTrace = f, f.Close
		}
		cfg.Tracer = telemetry.NewTracer(tw)
		defer func() {
			if err := errors.Join(cfg.Tracer.Err(), closeTrace()); err != nil {
				fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			}
		}()
	}
	// The aggregator folds each update off the wire; the handler only logs
	// and counts it.
	cfg.Handler = func(u flserve.Update) {
		if !o.quiet {
			logger.Info("update",
				slog.Uint64("client", uint64(u.Client)),
				slog.String("remote", u.Remote),
				slog.Int64("wire_bytes", u.WireBytes),
				slog.Duration("decode", u.Stats.DecompressTime.Round(time.Microsecond)),
				slog.Float64("overlap", u.Stats.OverlapRatio()))
		}
		countUpdate()
	}
	// Delivery is at-least-once — this program's own upstream client retries
	// — and the fold dedups by client ID: a retry whose first attempt folded
	// (lost ack) is acked again and folded once.
	sharded := agg.New(agg.Config{Pool: sched.NewPool(o.parallel)})
	cfg.Ingestor = sharded
	srv, err := flserve.Listen(o.addr, cfg)
	if err != nil {
		return err
	}
	if reg != nil {
		sched.RegisterMetrics(reg)
		core.RegisterMetrics(reg)
		srv.RegisterMetrics(reg)
		sharded.RegisterMetrics(reg)
	}
	fmt.Fprintf(o.out, "fedsz-serve listening on %s (parallel=%d)\n", srv.Addr(), o.parallel)
	if o.ready != nil {
		o.ready <- srv.Addr().String()
	}
	t0 := time.Now()
	select {
	case <-done:
	case <-o.stop:
	}
	wall := time.Since(t0)
	if err := srv.Close(); err != nil {
		return err
	}

	st := srv.Snapshot()
	fmt.Fprintf(o.out, "\ningested %d update(s) (%d rejected, %d shed), %.2f MB wire in %v\n",
		st.Updates, st.Rejected, st.Shed, float64(st.WireBytes)/1e6, wall.Round(time.Millisecond))
	if wall > 0 && st.Updates > 0 {
		fmt.Fprintf(o.out, "throughput: %.1f updates/s, %.1f MB/s wire\n",
			float64(st.Updates)/wall.Seconds(), float64(st.WireBytes)/wall.Seconds()/1e6)
	}
	fmt.Fprintf(o.out, "decode work %v, read wait %v, overlap ratio %.2f\n",
		st.DecodeWork.Round(time.Microsecond), st.ReadWait.Round(time.Microsecond), st.OverlapRatio())

	if o.upstream != "" {
		// An edge forwards one fused weighted update. The mean is re-encoded
		// at a tight error bound (REL 1e-4) so the extra lossy hop stays well
		// under the client-side bound.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		up := &flserve.Client{Addr: o.upstream, Retries: 3, RetryBackoff: 100 * time.Millisecond}
		w, err := sharded.Forward(ctx, up, o.edgeID, core.Options{LossyParams: ebcl.Rel(1e-4)})
		if err != nil {
			return err
		}
		if w > 0 {
			fmt.Fprintf(o.out, "forwarded fused update to %s (weight %g)\n", o.upstream, w)
		}
	} else if mean, n := sharded.Mean(); n > 0 {
		fmt.Fprintf(o.out, "FedAvg mean over %d update(s): %d tensors, %d parameters\n",
			n, mean.Len(), mean.NumParams())
		core.Release(mean)
	}
	return nil
}
