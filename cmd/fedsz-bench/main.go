// Command fedsz-bench regenerates the tables and figures of the FedSZ paper
// (Wilkins et al., IPDPS 2024) from this module's from-scratch
// implementation, and doubles as the repo's CLI upload client for the
// streaming aggregation server.
//
// Usage:
//
//	fedsz-bench                  # run every experiment at quick fidelity
//	fedsz-bench -run fig8        # run one experiment
//	fedsz-bench -run table1,fig4 # run a comma-separated subset
//	fedsz-bench -full            # high-fidelity settings (slower)
//	fedsz-bench -list            # list experiment IDs
//
// Upload client, the other half of a two-process run against fedsz-serve:
//
//	fedsz-bench -upload host:9464 -clients 32            # 32 concurrent uploads
//	fedsz-bench -upload host:9464 -clients 32 -mbps 100  # throttle each uplink to 100 Mbps
//
// Every update goes through the internal/wire framing and a TCP socket; the
// server's own summary, /metrics and -trace report what it cost there. The
// paper's Eqn-1 compress/don't-compress decision, swept over bandwidth per
// compressor, is Figure 8 (-run fig8). Performance — updates/s, overlap
// ratios, parallel efficiency — is measured by bench/ (bash bench/run.sh,
// see BENCHMARK.json), not here.
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

	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/experiments"
	"repro/internal/flserve"
	"repro/internal/netsim"
	"repro/internal/nn/models"
	"repro/internal/sched"
)

// config is the parsed command line. upload != "" means the upload client
// runs (with clients uploads); otherwise the experiments do.
type config struct {
	runIDs     string
	full, list bool
	seed       uint64
	clients    int
	scale      float64
	model      string
	mbps       float64
	upload     string
}

// parseArgs parses the command line and resolves the mode: -upload ADDR
// selects the upload client; a flag only it reads without -upload is a usage
// error rather than a silently ignored setting on a minutes-long experiment
// run.
func parseArgs(args []string, out io.Writer) (config, error) {
	var c config
	fs := flag.NewFlagSet("fedsz-bench", flag.ContinueOnError)
	fs.SetOutput(out)
	// up marks a flag as read by the upload client alone, where it is registered.
	uploadOnly := map[string]bool{}
	up := func(name string) string { uploadOnly[name] = true; return name }
	fs.StringVar(&c.runIDs, "run", "", "comma-separated experiment IDs (default: all)")
	fs.BoolVar(&c.full, "full", false, "high-fidelity configuration (slower)")
	fs.BoolVar(&c.list, "list", false, "list experiment IDs and exit")
	fs.Uint64Var(&c.seed, "seed", 1, "base seed for synthetic data and training")
	fs.StringVar(&c.upload, "upload", "", "upload client: send -clients compressed updates to the fedsz-serve at this address (empty = run experiments)")
	fs.IntVar(&c.clients, up("clients"), 32, "concurrent client uploads (with -upload)")
	fs.Float64Var(&c.scale, up("scale"), 0.05, "model profile scale (with -upload)")
	fs.StringVar(&c.model, up("model"), "alexnet", "profile model for client updates (with -upload)")
	fs.Float64Var(&c.mbps, up("mbps"), 0, "throttle each client uplink to this bandwidth (with -upload; 0 = unthrottled)")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	var err error
	if c.upload == "" {
		fs.Visit(func(f *flag.Flag) {
			if uploadOnly[f.Name] && err == nil {
				err = fmt.Errorf("-%s only applies to the upload client; add -upload ADDR (a fedsz-serve), or measure a loopback round with: bash bench/run.sh", f.Name)
			}
		})
	} else if c.clients <= 0 {
		err = fmt.Errorf("-clients %d: the upload client needs at least one", c.clients)
	}
	if err != nil {
		fmt.Fprintf(out, "fedsz-bench: %v\n", err)
	}
	return c, err
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

	if c.upload != "" {
		if err := runUpload(os.Stdout, c); err != nil {
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

// runUpload synthesizes one update per client (same architecture, different
// weights, like a real round's worth), compresses them concurrently, and
// uploads them concurrently to the fedsz-serve at c.upload through the
// internal/wire framing, each uplink throttled to c.mbps when set.
func runUpload(w io.Writer, c config) error {
	ctx := context.Background()
	streams := make([][]byte, c.clients)
	raw := make([]int, c.clients)
	if err := eachClient(c.clients, func(i int) error {
		sd, err := models.BuildProfile(c.model, rand.New(rand.NewPCG(c.seed, uint64(i)+1)), c.scale)
		if err == nil {
			raw[i] = sd.SizeBytes()
			streams[i], _, err = core.CompressWith(ctx, sched.Default(), sd, core.Options{LossyParams: ebcl.Rel(1e-2)})
		}
		return err
	}); err != nil {
		return err
	}
	rawBytes, wireBytes := 0, 0
	for i, s := range streams {
		rawBytes, wireBytes = rawBytes+raw[i], wireBytes+len(s)
	}
	fmt.Fprintf(w, "upload: %d clients × %s profile (scale %g) to %s\n", c.clients, c.model, c.scale, c.upload)
	fmt.Fprintf(w, "raw %d B -> wire %d B (ratio %.2fx)\n", rawBytes, wireBytes, float64(rawBytes)/float64(wireBytes))

	link := netsim.Link{BandwidthMbps: c.mbps}
	t0 := time.Now()
	if err := eachClient(c.clients, func(i int) error {
		cl := &flserve.Client{Addr: c.upload, Link: link}
		return cl.Upload(ctx, uint32(i), streams[i])
	}); err != nil {
		return err
	}
	dur := time.Since(t0)
	fmt.Fprintf(w, "%d update(s) acknowledged in %v (%.1f updates/s); see the server's summary for overlap\n",
		c.clients, dur.Round(time.Microsecond), float64(c.clients)/dur.Seconds())
	return nil
}

// eachClient runs fn for clients 0…n−1 in n goroutines and returns the
// lowest-numbered client's error.
func eachClient(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("client %d: %w", i, err)
		}
	}
	return nil
}
