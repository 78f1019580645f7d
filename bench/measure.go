package main

// One run of one workload: set-up (several times, median kept), the
// measured rounds, one more verified round, tear-down. An untraced run
// yields the end-to-end metrics; a traced run alternates untraced and traced
// rounds (their difference is the tracing overhead), then replays the inputs
// stage by stage, and yields the per-layer metrics.

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/flserve"
	"repro/internal/sched"
)

// runConfig is what one run is asked to do.
type runConfig struct {
	workload workload
	seed     uint64
	seconds  float64 // length of the measured window
	rounds   int     // when > 0, measure exactly this many rounds instead
	trace    bool
	scale    float64 // model-size factor; 1 except in the smoke test
	setups   int     // set-ups timed; the last one is measured
	outDir   string  // where the JSONL trace goes; empty writes nothing
	log      io.Writer
}

// runResult is what one run reports.
type runResult struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]outcome `json:"metrics"`
}

type outcome struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// minRounds is one period of the delta trajectory: wire_bytes_per_update is
// counted over exactly the first minRounds measured rounds, so it repeats
// exactly for a seed however many rounds the window then fits.
const minRounds = trajectoryPeriod

func run(cfg runConfig) (*runResult, error) {
	w := cfg.workload
	host := newHostRef()
	var setupTimes []float64
	var e *env
	var total tally
	for i := 0; i < max(1, cfg.setups); i++ {
		if e != nil {
			e.tearDown()
			total.merge(&e.tally)
			e = nil
			runtime.GC()
		}
		before := len(host.samples)
		host.sample()
		cpu0 := cpuSeconds()
		var err error
		if e, err = setUp(w, cfg.seed, cfg.scale); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		cpu := cpuSeconds() - cpu0
		host.sample()
		setupTimes = append(setupTimes, e.setupS*quiet(e.setupS, cpu, host.around(before)))
	}
	fmt.Fprintf(cfg.log, "workload %s (%s): K=%d, %d in flight, closed loop, loopback, in-process; model %s, %d params\n",
		w.name, w.why, w.clients, inFlight, e.in.spec.name, e.originals()[0].NumParams())
	fmt.Fprintf(cfg.log, "seed %d, input sha256 %s\n", cfg.seed, e.in.hash)

	var values map[string]float64
	var err error
	if cfg.trace {
		values, err = measureTraced(cfg, e)
	} else {
		values = measureEndToEnd(cfg, e, host, median(setupTimes))
	}
	if err != nil {
		return nil, err
	}
	e.runRound(nil, true)
	e.tearDown()
	total.merge(&e.tally)

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := &runResult{
		Correct:   total.failed == 0,
		Attempted: total.attempted,
		Failed:    total.failed,
		Metrics:   map[string]outcome{},
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = outcome{Value: v, Unit: d.unit}
		fmt.Fprintf(cfg.log, "  %-32s %14.4f %s\n", d.name, v, d.unit)
	}
	for _, err := range total.errs {
		fmt.Fprintf(cfg.log, "FAILED: %v\n", err)
	}
	return res, nil
}

// window decides when the measured rounds end.
type window struct {
	deadline time.Time
	rounds   int
}

func newWindow(cfg runConfig, share float64) window {
	if cfg.rounds > 0 {
		return window{rounds: cfg.rounds}
	}
	return window{deadline: time.Now().Add(time.Duration(cfg.seconds * share * float64(time.Second))), rounds: minRounds}
}

// more reports whether another round should run after done rounds.
func (w window) more(done int) bool {
	if w.deadline.IsZero() {
		return done < w.rounds
	}
	return done < w.rounds || time.Now().Before(w.deadline)
}

// measureEndToEnd runs rounds for the window and reports the median round,
// ack and CPU time, each round's values first scaled to the reference host
// speed by the kernel samples around it (see host.go). A round's ack time is
// the mean over its updates: on the small-update workload the acks of a round
// fall into two clusters 60 % apart, and a median jumps from one to the other
// between runs. The medians as measured are printed beside the metrics.
func measureEndToEnd(cfg runConfig, e *env, host *hostRef, setupS float64) map[string]float64 {
	var rounds []roundSample
	var marks []int // per round, the host sample taken last before it
	var wireBytes, wireUpdates float64
	snap0 := e.srv.Snapshot()
	win := newWindow(cfg, 1)
	for r := 0; win.more(r); r++ {
		marks = append(marks, host.mark())
		rounds = append(rounds, e.runRound(nil, false))
		if r == min(minRounds, win.rounds)-1 {
			snap := e.srv.Snapshot()
			wireBytes = float64(snap.WireBytes - snap0.WireBytes)
			wireUpdates = float64(snap.Updates - snap0.Updates)
		}
	}
	host.sample()

	var rawWall, rawAck, wall, ack, cpu, slow []float64
	for i, s := range rounds {
		ref := host.around(marks[i])
		q := quiet(s.wall, s.cpu, ref)
		rawWall = append(rawWall, s.wall)
		rawAck = append(rawAck, s.acks...)
		wall = append(wall, s.wall*q)
		ack = append(ack, mean(s.acks)*q)
		cpu = append(cpu, s.cpu*q/float64(e.w.clients))
		slow = append(slow, ref/refNominal)
	}
	fmt.Fprintf(cfg.log, "measured %d rounds and %d acks; as measured the median round took %.4f ms and the median ack %.4f ms, on a host %.3f times as slow as the reference (median of %d kernel samples)\n",
		len(rounds), len(rawAck), median(rawWall)*1e3, median(rawAck)*1e3, median(slow), len(host.samples))
	round := median(wall)
	return map[string]float64{
		"setup_s":               setupS,
		"round_ms":              round * 1e3,
		"ack_ms":                median(ack) * 1e3,
		"updates_per_s":         ratio(float64(e.w.clients), round),
		"wire_bytes_per_update": ratio(wireBytes, wireUpdates),
		"cpu_ms_per_update":     median(cpu) * 1e3,
		"peak_rss_mb":           peakRSSMB(),
	}
}

// liveShare is the part of a traced run's window spent on live rounds; the
// staged replay gets the rest.
const liveShare = 0.4

func measureTraced(cfg runConfig, e *env) (map[string]float64, error) {
	rec := newRecorder()
	var plainWalls, tracedWalls, acks []float64
	var ms0, ms1 runtime.MemStats
	byteHits0, byteMisses0 := sched.BytePoolCounters()
	floatHits0, floatMisses0 := sched.FloatPoolCounters()
	snap0 := e.srv.Snapshot()
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	win := newWindow(cfg, liveShare)
	for r := 0; win.more(r); r++ {
		// Alternating round by round cancels drift between the two samples.
		if r%2 == 0 {
			s := e.runRound(nil, false)
			plainWalls = append(plainWalls, s.wall)
			acks = append(acks, s.acks...)
			continue
		}
		s := e.runRound(rec, false)
		tracedWalls = append(tracedWalls, s.wall)
		acks = append(acks, s.acks...)
	}
	elapsed := time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)
	snap := e.srv.Snapshot()
	byteHits1, byteMisses1 := sched.BytePoolCounters()
	floatHits1, floatMisses1 := sched.FloatPoolCounters()
	updates := float64(snap.Updates - snap0.Updates)
	fmt.Fprintf(cfg.log, "traced run: %d untraced and %d traced rounds, %d acks, %d spans\n",
		len(plainWalls), len(tracedWalls), len(acks), len(rec.spans))
	if len(acks) < 1000 {
		fmt.Fprintf(cfg.log, "note: %d ack samples; flserve.ack_ms_p99 needs 1000 to mean anything\n", len(acks))
	}

	hitRatio := func(hits, misses uint64) float64 { return ratio(float64(hits), float64(hits+misses)) }
	live := flserve.Stats{
		ReadWait:   snap.ReadWait - snap0.ReadWait,
		DecodeWork: snap.DecodeWork - snap0.DecodeWork,
		Wall:       snap.Wall - snap0.Wall,
	}
	m := map[string]float64{
		"agg.mean_ms":     median(rec.durations("agg.mean")) * 1e3,
		"agg.reset_ms":    median(rec.durations("agg.reset")) * 1e3,
		"flserve.dial_us": median(rec.durations("flserve.dial")) * 1e6,

		"flserve.read_wait_frac":    ratio(live.ReadWait.Seconds(), live.Wall.Seconds()),
		"flserve.decode_work_frac":  ratio(live.DecodeWork.Seconds(), live.Wall.Seconds()),
		"flserve.overlap_ratio":     live.OverlapRatio(),
		"flserve.ack_ms_p50":        median(acks) * 1e3,
		"flserve.ack_ms_p95":        percentile(acks, 95) * 1e3,
		"flserve.ack_ms_p99":        percentile(acks, 99) * 1e3,
		"flserve.ack_ms_max":        percentile(acks, 100) * 1e3,
		"flserve.run_updates_per_s": ratio(updates, elapsed),
		"flserve.rejected":          float64(snap.Rejected),
		"flserve.shed":              float64(snap.Shed),

		"sched.byte_pool_hit_ratio":    hitRatio(byteHits1-byteHits0, byteMisses1-byteMisses0),
		"sched.float_pool_hit_ratio":   hitRatio(floatHits1-floatHits0, floatMisses1-floatMisses0),
		"sched.recycled_kb_per_update": ratio(float64(snap.BytesRecycled-snap0.BytesRecycled)/1e3, updates),
		"sched.pool_busy_after":        float64(e.aggPool.Busy() + e.encPool.Busy()),

		"proc.allocs_per_update":   ratio(float64(ms1.Mallocs-ms0.Mallocs), updates),
		"proc.alloc_kb_per_update": ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e3, updates),
		"proc.gc_count":            float64(ms1.NumGC - ms0.NumGC),
		"proc.gc_pause_ms":         float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,

		"trace.overhead_frac": ratio(median(tracedWalls), median(plainWalls)) - 1,
	}

	if cfg.outDir != "" {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("trace_%s_seed%d.jsonl", e.w.name, cfg.seed))
		if err := rec.writeJSONL(path); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(cfg.log, "trace written to %s\n", path)
	}

	budget := time.Duration(cfg.seconds * (1 - liveShare) * float64(time.Second))
	update, ref := replayPair(e.w, e.in, cfg.seed)
	staged, err := stagedReplay(e.w, update, ref, budget)
	if err != nil {
		return nil, fmt.Errorf("staged replay: %w", err)
	}
	for name, v := range staged {
		m[name] = v
	}
	if r := m["trace.stage_sum_over_ack"]; r < 0.8 || r > 1.25 {
		fmt.Fprintf(cfg.log, "warning: stage self times sum to %.2f of the one-in-flight ack; the breakdown misses or double-counts time\n", r)
	}
	return m, nil
}
