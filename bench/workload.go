package main

// The four workloads and the live round they all run: K distinct client
// updates uploaded over loopback TCP to an in-process flserve server with
// two uploads in flight, then Sharded.Mean. The load model is a closed loop
// (an FL client waits for its ack) and is fixed, not derived from nproc, so
// numbers from different hosts describe the same experiment.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	fedsz "repro"
	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/flserve"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// inFlight is the number of concurrent client uploads, the server's decode
// budget, the aggregator's shard count and the client encode budget.
const inFlight = 2

type uploadMode int

const (
	modeState      uploadMode = iota // Client.UploadState: streaming encode onto the socket
	modePreEncoded                   // Client.Upload of a stream encoded during set-up
	modeDelta                        // DialDelta session, Session.UploadState against a reference
)

type workload struct {
	name    string
	why     string
	model   func(scale float64) modelSpec
	clients int // K, the updates per round
	mode    uploadMode
	link    netsim.Link
	warmup  int // verified rounds run during set-up
}

func scaled(params int, scale float64) int { return int(float64(params) * scale) }

var workloads = []workload{
	{
		name:    "round_lan",
		why:     "CPU-bound full path on a skewed model: sz2 encode dominates, so codec, chunk fan-out and pool changes show here",
		model:   func(s float64) modelSpec { return alexnetSkew(scaled(2_400_000, s)) },
		clients: 8, mode: modeState, warmup: 2,
	},
	{
		name:    "ingest_small",
		why:     "pre-encoded small updates: per-update server overhead (conn, frames, routing, allocs) dominates; encode changes must not show",
		model:   func(s float64) modelSpec { return tinyEven(scaled(30_000, s)) },
		clients: 64, mode: modePreEncoded, warmup: 10,
	},
	{
		name:    "round_wan10",
		why:     "the paper's 10 Mbps edge link: ack is wire bytes over bandwidth, so ratio and overlap show; codec speed shows only in CPU",
		model:   func(s float64) modelSpec { return mobilenetEven(scaled(612_000, s)) },
		clients: 4, mode: modeState, link: netsim.Link{BandwidthMbps: 10}, warmup: 1,
	},
	{
		name:    "delta_rounds",
		why:     "cross-round delta sessions: the both-ways policy encodes eligible tensors twice, so delta-policy changes move only this",
		model:   func(s float64) modelSpec { return mobilenetEven(scaled(1_750_000, s)) },
		clients: 4, mode: modeDelta, warmup: 2,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs is everything generated from the seed for one workload.
type inputs struct {
	spec    modelSpec
	dicts   []*tensor.StateDict // modeState, modePreEncoded: the K client updates
	streams [][]byte            // modePreEncoded: dicts, encoded during set-up
	traj    *trajectory         // modeDelta
	hash    string

	// modeDelta: this round's global and updates, rebuilt in place per round.
	global  *tensor.StateDict
	updates []*tensor.StateDict
}

func genInputs(w workload, seed uint64, scale float64) *inputs {
	in := &inputs{spec: w.model(scale)}
	if w.mode == modeDelta {
		in.traj = genTrajectory(seed, in.spec)
		in.updates = make([]*tensor.StateDict, w.clients)
		in.hash = inputHash(append([]*tensor.StateDict{in.traj.g0, in.traj.drift}, in.traj.noise...)...)
		return in
	}
	in.dicts = genClients(seed, in.spec, w.clients)
	in.hash = inputHash(in.dicts...)
	return in
}

// tally counts operations attempted and failed; the first few failures are
// kept for the report.
type tally struct {
	attempted, failed int
	errs              []error
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(err error) {
	t.attempted++
	t.failed++
	if len(t.errs) < 8 {
		t.errs = append(t.errs, err)
	}
}

func (t *tally) check(err error) {
	if err != nil {
		t.fail(err)
		return
	}
	t.ok()
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, err := range o.errs {
		if len(t.errs) < 8 {
			t.errs = append(t.errs, err)
		}
	}
}

// env is one set-up instance of a workload: inputs, a listening server and
// its aggregator, and the client side.
type env struct {
	w       workload
	in      *inputs
	srv     *flserve.Server
	agg     *agg.Sharded
	aggPool *sched.Pool
	encPool *sched.Pool
	ref     delta.Ref
	client  flserve.Client
	rounds  int // rounds run so far; the delta trajectory's index
	tally   tally
	setupS  float64
}

// setUp generates the inputs, pre-encodes where the workload says so, starts
// the server and runs the verified warm-up rounds.
func setUp(w workload, seed uint64, scale float64) (*env, error) {
	t0 := time.Now()
	e := &env{w: w, in: genInputs(w, seed, scale)}
	if w.mode == modePreEncoded {
		codec, err := fedsz.New(fedsz.WithParallelism(inFlight))
		if err != nil {
			return nil, err
		}
		for _, sd := range e.in.dicts {
			stream, _, err := codec.Compress(context.Background(), sd)
			if err != nil {
				return nil, fmt.Errorf("pre-encode: %w", err)
			}
			e.in.streams = append(e.in.streams, stream)
		}
	}
	e.aggPool = sched.NewPool(inFlight)
	e.encPool = sched.NewPool(inFlight)
	e.agg = agg.New(agg.Config{Shards: inFlight, Pool: e.aggPool})
	srv, err := flserve.Listen("127.0.0.1:0", flserve.Config{
		Parallel:    inFlight,
		Ingestor:    e.agg,
		RefProvider: e.ref.Provider(),
	})
	if err != nil {
		return nil, err
	}
	e.srv = srv
	e.client = flserve.Client{Addr: srv.Addr().String(), Link: w.link}
	for i := 0; i < w.warmup; i++ {
		e.runRound(nil, true)
	}
	e.setupS = time.Since(t0).Seconds()
	return e, nil
}

// tearDown closes the server and checks that nothing was refused or leaked.
func (e *env) tearDown() {
	e.tally.check(e.srv.Close())
	snap := e.srv.Snapshot()
	if snap.Rejected != 0 || snap.Shed != 0 {
		e.tally.fail(fmt.Errorf("server rejected %d and shed %d connections", snap.Rejected, snap.Shed))
	}
	if busy := e.aggPool.Busy() + e.encPool.Busy(); busy != 0 {
		e.tally.fail(fmt.Errorf("%d pool tokens still held after the run", busy))
	}
}

// roundSample is what one live round measured.
type roundSample struct {
	wall float64   // first dial → Mean returned, seconds
	cpu  float64   // user+sys over the round, Release and Reset, seconds
	acks []float64 // per-update upload-to-ack latency, seconds
}

// rusage is the process's resource usage so far; a failed call reads as zero.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF with a valid pointer cannot fail
	return ru
}

func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

// originals returns this round's K client updates, building them first for
// the delta trajectory (input preparation, outside every timed window).
func (e *env) originals() []*tensor.StateDict {
	if e.w.mode != modeDelta {
		return e.in.dicts
	}
	in := e.in
	in.global = in.traj.globalInto(in.global, e.rounds)
	for i := range in.updates {
		in.updates[i] = in.traj.updateInto(in.updates[i], in.global, i, e.rounds)
	}
	return in.updates
}

// runRound uploads the round's K updates with inFlight client goroutines,
// takes the mean, and resets the aggregator. Every round checks the acks and
// the folded count; verify adds the exact-mean bound check, which therefore
// never sits inside a timed or CPU-accounted window of a measured round.
func (e *env) runRound(rec *recorder, verify bool) roundSample {
	originals := e.originals()
	k := len(originals)
	ctx := context.Background()

	cpu0 := cpuSeconds()
	t0 := time.Now()
	roundID := rec.open()
	var opts core.Options
	if e.w.mode == modeDelta {
		ts := time.Now()
		opts.RefEpoch = e.ref.Set(e.in.global)
		opts.Reference, _, _ = e.ref.Get()
		rec.leaf("delta.ref_set", roundID, -1, ts, time.Now())
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	acks := make([][]float64, inFlight)
	tallies := make([]tally, inFlight)
	for g := 0; g < inFlight; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sess *flserve.Session
			if e.w.mode == modeDelta {
				ts := time.Now()
				s, err := e.client.DialDelta(ctx, opts.RefEpoch)
				rec.leaf("flserve.dial", roundID, -1, ts, time.Now())
				if err == nil && !s.DeltaAccepted() {
					s.Close()
					err = fmt.Errorf("server refused delta epoch %d", opts.RefEpoch)
				}
				if err != nil {
					tallies[g].fail(err)
					return
				}
				sess = s
				defer sess.Close()
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= k {
					return
				}
				ts := time.Now()
				err := e.upload(ctx, rec, roundID, sess, i, originals[i], opts)
				acks[g] = append(acks[g], time.Since(ts).Seconds())
				tallies[g].check(err)
			}
		}(g)
	}
	wg.Wait()
	tm := time.Now()
	mean, count := e.agg.Mean()
	t1 := time.Now()
	rec.leaf("agg.mean", roundID, -1, tm, t1)
	rec.close(roundID, "round", 0, -1, t0, t1)

	s := roundSample{wall: t1.Sub(t0).Seconds()}
	for g := range acks {
		s.acks = append(s.acks, acks[g]...)
		e.tally.merge(&tallies[g])
	}
	if verify {
		checks, failures := verifyMean(mean, count, originals)
		e.tally.attempted += checks - len(failures)
		for _, err := range failures {
			e.tally.fail(err)
		}
	} else if count != k {
		e.tally.fail(fmt.Errorf("round %d: aggregator folded %d updates, want %d", e.rounds, count, k))
	} else {
		e.tally.ok()
	}
	core.Release(mean)
	tr := time.Now()
	e.agg.Reset()
	rec.leaf("agg.reset", 0, -1, tr, time.Now())
	s.cpu = cpuSeconds() - cpu0
	e.rounds++
	return s
}

// upload sends update i and waits for its ack. The traced path splits the
// one-call client entry points into dial and upload so each gets a span; the
// work done is the same.
func (e *env) upload(ctx context.Context, rec *recorder, roundID int64, sess *flserve.Session, i int, sd *tensor.StateDict, opts core.Options) error {
	id := uint32(i)
	ts := time.Now()
	upID := rec.open()
	defer func() { rec.close(upID, "client.update", roundID, i, ts, time.Now()) }()

	if sess == nil && rec == nil {
		if e.w.mode == modePreEncoded {
			return e.client.Upload(ctx, id, e.in.streams[i])
		}
		_, err := e.client.UploadState(ctx, id, sd, opts, e.encPool)
		return err
	}
	if sess == nil {
		s, err := e.client.Dial(ctx)
		rec.leaf("flserve.dial", upID, i, ts, time.Now())
		if err != nil {
			return err
		}
		defer s.Close()
		sess = s
	}
	tu := time.Now()
	defer func() { rec.leaf("flserve.upload", upID, i, tu, time.Now()) }()
	if e.w.mode == modePreEncoded {
		return sess.Upload(ctx, id, e.in.streams[i])
	}
	_, err := sess.UploadState(ctx, id, sd, opts, e.encPool)
	return err
}
