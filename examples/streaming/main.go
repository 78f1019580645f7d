// Streaming scenario: the paper's aggregation server fed by real sockets,
// now streaming on *both* sides of the wire. Eight clients compress one
// model update each straight into a 100 Mbps-throttled uplink — each
// uploads through flserve.Client.UploadState, whose wire.EncodeStream emits
// the stream header and each finished tensor section as a frame while later
// tensors are still compressing, so the upload overlaps the encode (no
// client ever materializes its whole compressed stream). The server decodes each tensor while the next is
// still arriving (internal/wire frames into core.DecodeSections on a
// shared worker pool) and agg.Sharded folds finished updates incrementally
// into a FedAvg mean. The run verifies the streamed aggregate against the
// in-memory decode of the same updates and prints the overlap each side
// of the pipeline buys.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"time"

	fedsz "repro"
	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/flserve"
	"repro/internal/netsim"
	"repro/internal/nn/models"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const nClients = 8
	ctx := context.Background()
	link := netsim.Link{BandwidthMbps: 100}

	// One session codec for the whole run: configuration validated once,
	// one shared parallelism budget for every encode below.
	codec, err := fedsz.New(
		fedsz.WithCompressor("sz2"),
		fedsz.WithRelBound(1e-2),
		fedsz.WithParallelism(4),
	)
	if err != nil {
		return err
	}

	// Each client trains locally in the real loop; here one scaled AlexNet
	// profile per client stands in for a round's update.
	updates := make([]*tensor.StateDict, nClients)
	rawBytes := 0
	for i := range updates {
		rng := rand.New(rand.NewPCG(7, uint64(i)+1))
		sd, err := models.BuildProfile("alexnet", rng, 0.02)
		if err != nil {
			return err
		}
		rawBytes += sd.SizeBytes()
		updates[i] = sd
	}
	fmt.Printf("%d clients, %.2f MB raw updates\n", nClients, float64(rawBytes)/1e6)

	// Each component keeps its own counters; the program builds the registry
	// they are attached to below, and one HTTP listener exposes it all. This
	// is the same endpoint fedsz-serve -metrics-addr serves.
	reg := telemetry.NewRegistry()
	mln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ms := &http.Server{Handler: telemetry.NewHTTPHandler(reg)}
	go ms.Serve(mln)
	defer ms.Close()
	scrapeURL := fmt.Sprintf("http://%s/metrics", mln.Addr())
	fmt.Printf("metrics at %s (pprof at /debug/pprof/)\n", scrapeURL)

	// The aggregation server: shared decode budget, incremental FedAvg,
	// and a per-upload deadline so a stalled client cannot pin a round.
	// The fold dedups by client ID, which pairs with the clients' retry
	// policy below — a retry whose first attempt actually folded (lost ack)
	// must not double-weight its client.
	fold := agg.New(agg.Config{Pool: sched.NewPool(4)})
	srv, err := flserve.Listen("127.0.0.1:0", flserve.Config{
		UploadTimeout: 30 * time.Second,
		Ingestor:      fold,
	})
	if err != nil {
		return err
	}
	sched.RegisterMetrics(reg)
	core.RegisterMetrics(reg)
	srv.RegisterMetrics(reg)
	fold.RegisterMetrics(reg)
	fmt.Printf("aggregation server on %s, %g Mbps per uplink\n",
		srv.Addr(), link.BandwidthMbps)

	// Streaming-encode uploads: UploadState pipes codec sections straight
	// into wire frames on the socket. Each client gets a per-attempt
	// timeout and one retry — the session API's transport policy. The
	// encode pool has helpers so a throttled send overlaps later tensors'
	// compression even on small hosts.
	encPool := sched.NewPool(4)
	t0 := time.Now()
	errs := make([]error, nClients)
	encOverlap := make([]float64, nClients)
	var wg sync.WaitGroup
	for i, sd := range updates {
		wg.Add(1)
		go func(i int, sd *tensor.StateDict) {
			defer wg.Done()
			c := &flserve.Client{
				Addr: srv.Addr().String(), Link: link,
				Timeout: time.Minute, Retries: 1,
			}
			stats, err := c.UploadState(ctx, uint32(i), sd, codec.Options(), encPool)
			if err != nil {
				errs[i] = err
				return
			}
			encOverlap[i] = stats.EncodeOverlapRatio()
		}(i, sd)
	}
	wg.Wait()
	ingestWall := time.Since(t0)
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("client %d: %w", i, err)
		}
	}
	if err := srv.Close(); err != nil {
		return err
	}

	st := srv.Snapshot()
	meanEnc := 0.0
	for _, r := range encOverlap {
		meanEnc += r / nClients
	}
	fmt.Printf("ingested %d updates (%.2f MB wire) in %v — %.1f updates/s\n",
		st.Updates, float64(st.WireBytes)/1e6, ingestWall.Round(time.Millisecond),
		float64(st.Updates)/ingestWall.Seconds())
	fmt.Printf("client side: encode overlap %.2f (compress hidden behind send)\n", meanEnc)

	// The server-side decode story now comes off the wire the way an
	// operator would read it: scrape /metrics and pick the samples out of
	// the exposition instead of reaching into Server internals.
	resp, err := http.Get(scrapeURL)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	samples, err := telemetry.ParseText(body)
	if err != nil {
		return fmt.Errorf("parse /metrics: %w", err)
	}
	dCount, ok1 := telemetry.FindSample(samples, "fedsz_server_decode_seconds_count")
	dSum, ok2 := telemetry.FindSample(samples, "fedsz_server_decode_seconds_sum")
	if !ok1 || !ok2 || dCount.Value == 0 {
		return fmt.Errorf("scrape missing fedsz_server_decode_seconds (count ok=%v sum ok=%v)", ok1, ok2)
	}
	meanDecode := time.Duration(dSum.Value / dCount.Value * float64(time.Second))
	oSum, _ := telemetry.FindSample(samples, "fedsz_server_overlap_ratio_sum")
	fmt.Printf("server side (scraped): %d decodes, mean %v each, overlap %.2f\n",
		int(dCount.Value), meanDecode.Round(time.Microsecond), oSum.Value/dCount.Value)

	// Verify: the streamed FedAvg mean must match the mean of in-memory
	// compress + decode of the same updates through the same codec.
	mean, n := fold.Mean()
	if n != nClients {
		return fmt.Errorf("aggregated %d of %d updates", n, nClients)
	}
	var want *tensor.StateDict
	for _, u := range updates {
		stream, _, err := codec.Compress(ctx, u)
		if err != nil {
			return err
		}
		sd, _, err := codec.Decompress(ctx, stream)
		if err != nil {
			return err
		}
		if want == nil {
			want = sd.Zero()
		}
		if err := want.AddScaled(sd, 1/float32(nClients)); err != nil {
			return err
		}
	}
	d, err := mean.MaxAbsDiff(want)
	if err != nil {
		return err
	}
	if d > 1e-5 {
		return fmt.Errorf("streamed mean differs from in-memory mean by %g", d)
	}
	fmt.Printf("streamed FedAvg mean matches in-memory decode (max diff %g)\n", d)
	return nil
}
