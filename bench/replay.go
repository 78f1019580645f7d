package main

// The staged replay: one of the workload's updates pushed through each
// layer's public entry point in isolation, on serial pools. Every repetition
// runs every stage once, back to back, so a difference between two stages is
// taken between calls made under the same machine conditions; medians over
// the repetitions are kept. A layer's self time is obtained by subtraction
// (core.encode_self = whole compress − Σ sz2 − lossless, and so on up to the
// connection), so the stages telescope to core.compress + flserve.upload;
// trace.stage_sum_over_ack compares that sum with a real streaming upload
// and is the check that the breakdown accounts for the time a client waits.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	fedsz "repro"
	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/flserve"
	"repro/internal/huffman"
	"repro/internal/lossless"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/sz2"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// replayReps caps the repetitions; the replay stops earlier when its time
// budget is spent, but never before minReps.
const (
	replayReps = 30
	minReps    = 3
)

// edgeLink is the paper's constrained uplink.
var edgeLink = netsim.Link{BandwidthMbps: 10}

// stage is one timed call of the replay and its samples, one per repetition.
type stage struct {
	name   string
	fn     func() error
	secs   []float64
	allocs uint64 // heap allocations over all repetitions
	bytes  uint64 // heap bytes allocated over all repetitions
}

func (s *stage) sec() float64           { return median(s.secs) }
func (s *stage) allocsPerCall() float64 { return float64(s.allocs) / float64(len(s.secs)) }
func (s *stage) bytesPerCall() float64  { return float64(s.bytes) / float64(len(s.secs)) }

// minus returns the median over repetitions of s − Σ others.
func (s *stage) minus(others ...*stage) float64 {
	d := append([]float64(nil), s.secs...)
	for _, o := range others {
		for i := range d {
			d[i] -= o.secs[i]
		}
	}
	return median(d)
}

// runStages runs every stage once per repetition until replayReps or the
// budget is reached. Allocation counts come from runtime.MemStats deltas
// taken outside the timed call, exact here because one call runs at a time.
func runStages(budget time.Duration, stages []*stage) error {
	var ms0, ms1 runtime.MemStats
	deadline := time.Now().Add(budget)
	for rep := 0; rep < replayReps && (rep < minReps || time.Now().Before(deadline)); rep++ {
		for _, s := range stages {
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			err := s.fn()
			s.secs = append(s.secs, time.Since(t0).Seconds())
			runtime.ReadMemStats(&ms1)
			if err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			s.allocs += ms1.Mallocs - ms0.Mallocs
			s.bytes += ms1.TotalAlloc - ms0.TotalAlloc
		}
	}
	return nil
}

// lorenzoCodes quantizes data under a 1-D Lorenzo predictor at the REL bound
// the codec would resolve: the symbol stream the entropy stage sees.
func lorenzoCodes(data []float32) []uint16 {
	codes := make([]uint16, len(data))
	eb := relBound * ebcl.ValueRange(data)
	if eb <= 0 {
		return codes
	}
	q := ebcl.NewQuantizer(eb)
	prev := 0.0
	for i, v := range data {
		code, recon, ok := q.Quantize(float64(v), prev)
		if !ok {
			codes[i], prev = ebcl.EscapeCode, float64(v)
			continue
		}
		codes[i], prev = uint16(code), float64(recon)
	}
	return codes
}

// replayPair returns the update the replay pushes through the layers and a
// reference for the delta stage. The delta workload uses its own round-0
// global and update; the others perturb their first client dict with the
// same per-tensor noise rule, so the delta layer is measured on every
// workload's tensor shapes.
func replayPair(w workload, in *inputs, seed uint64) (update, ref *tensor.StateDict) {
	if w.mode == modeDelta {
		ref = in.traj.globalInto(nil, 0)
		return in.traj.updateInto(nil, ref, 0, 0), ref
	}
	rng := rand.New(rand.NewPCG(seed, streamDelta))
	noise := genDict(rng, in.spec, 0, func() float32 { return float32(rng.NormFloat64()) })
	tr := &trajectory{g0: in.dicts[0], noise: []*tensor.StateDict{noise}}
	return tr.updateInto(nil, in.dicts[0], 0, 0), in.dicts[0]
}

// stagedReplay measures every layer on update and returns its metrics;
// budget bounds the repetitions.
func stagedReplay(w workload, update, ref *tensor.StateDict, budget time.Duration) (map[string]float64, error) {
	ctx := context.Background()

	var lossy [][]float32
	meta := tensor.NewStateDict()
	for _, e := range update.Entries() {
		if isLossy(e) {
			lossy = append(lossy, e.Tensor.Data)
		} else {
			meta.Add(e.Name, e.Kind, e.Tensor)
		}
	}
	lossyBytes, symbols := 0, 0
	codes := make([][]uint16, len(lossy))
	for i, d := range lossy {
		lossyBytes += 4 * len(d)
		symbols += len(d)
		codes[i] = lorenzoCodes(d)
	}
	rawBytes := update.SizeBytes()
	metaRaw := meta.Marshal()

	blosc, err := lossless.Get("blosclz")
	if err != nil {
		return nil, err
	}
	serial, err := fedsz.New(fedsz.WithParallelism(1))
	if err != nil {
		return nil, err
	}
	twoWay, err := fedsz.New(fedsz.WithParallelism(inFlight))
	if err != nil {
		return nil, err
	}
	// The stream is a pure function of update, so the framed bytes the
	// ingest stages read can be built once, ahead of the loop.
	stream, cstats, err := serial.Compress(ctx, update)
	if err != nil {
		return nil, fmt.Errorf("core compress: %w", err)
	}
	var framedBuf bytes.Buffer
	if err := wire.NewWriter(&framedBuf).WriteStream(stream); err != nil {
		return nil, err
	}
	framed := framedBuf.Bytes()

	// One upload in flight against a serial server; sh is the same
	// aggregator fed from memory. Both are reset every few updates so most
	// repetitions fold, as a round's later updates do, rather than adopt.
	newSharded := func() *agg.Sharded {
		return agg.New(agg.Config{Shards: inFlight, Pool: sched.NewPool(1)})
	}
	sh, srvAgg := newSharded(), newSharded()
	srv, err := flserve.Listen("127.0.0.1:0", flserve.Config{Parallel: 1, Ingestor: srvAgg})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	client := flserve.Client{Addr: srv.Addr().String()}
	encPool := sched.NewPool(inFlight)
	id := uint32(0)
	nextID := func() uint32 {
		if id++; id%4 == 0 {
			sh.Reset()
			srvAgg.Reset()
		}
		return id
	}

	comp := sz2.NewCompressor()
	blobs := make([][]byte, len(lossy))
	recon := make([][]float32, len(lossy))
	coded := make([][]byte, len(lossy))
	dc := fedsz.NewDelta(serial)
	var (
		metaPacked, dstream []byte
		dstats              *fedsz.Stats
		own                 *core.Stats
		effs, works         []float64
		frames              int
	)

	sz2c := &stage{name: "sz2 compress", fn: func() error {
		for i, d := range lossy {
			b, err := comp.CompressAppend(blobs[i][:0], d, ebcl.Rel(relBound))
			if err != nil {
				return err
			}
			blobs[i] = b
		}
		return nil
	}}
	sz2d := &stage{name: "sz2 decompress", fn: func() error {
		for i, b := range blobs {
			r, err := comp.DecompressInto(recon[i], b)
			if err != nil {
				return err
			}
			recon[i] = r
		}
		return nil
	}}
	hufE := &stage{name: "huffman encode", fn: func() error {
		for i, c := range codes {
			b, err := huffman.EncodeMultiU16(c, ebcl.QuantAlphabet, huffman.DefaultStreams)
			if err != nil {
				return err
			}
			coded[i] = b
		}
		return nil
	}}
	hufD := &stage{name: "huffman decode", fn: func() error {
		for i, b := range coded {
			out, err := huffman.DecodeMultiU16(b, ebcl.QuantAlphabet)
			if err != nil {
				return err
			}
			if len(out) != len(codes[i]) {
				return fmt.Errorf("decoded %d symbols, want %d", len(out), len(codes[i]))
			}
		}
		return nil
	}}
	llc := &stage{name: "lossless compress", fn: func() (err error) {
		metaPacked, err = blosc.Compress(metaRaw)
		return err
	}}
	lld := &stage{name: "lossless decompress", fn: func() error {
		out, err := blosc.Decompress(metaPacked)
		if err == nil && !bytes.Equal(out, metaRaw) {
			err = fmt.Errorf("round trip differs")
		}
		return err
	}}
	corec := &stage{name: "core compress", fn: func() error {
		_, _, err := serial.Compress(ctx, update)
		return err
	}}
	corec2 := &stage{name: "core compress (2-way)", fn: func() error {
		_, st, err := twoWay.Compress(ctx, update)
		if err == nil {
			works = append(works, st.EncodeWork.Seconds())
			effs = append(effs, ratio(st.EncodeWork.Seconds(), inFlight*st.CompressTime.Seconds()))
		}
		return err
	}}
	cored := &stage{name: "core decompress", fn: func() error {
		sd, _, err := serial.Decompress(ctx, stream)
		core.Release(sd)
		return err
	}}
	wf := &stage{name: "wire frame", fn: func() error {
		return wire.NewWriter(io.Discard).WriteStream(stream)
	}}
	wd := &stage{name: "wire deframe", fn: func() error {
		r := wire.NewReader(bytes.NewReader(framed))
		defer r.Close()
		n, err := io.Copy(io.Discard, r)
		if err == nil && int(n) != len(stream) {
			err = fmt.Errorf("reader yielded %d bytes, want %d", n, len(stream))
		}
		frames = r.Frames()
		return err
	}}
	ing := &stage{name: "agg ingest", fn: func() error {
		_, _, err := sh.IngestStream(ctx, nextID(), 1, core.DecodeOptions{}, bytes.NewReader(framed))
		return err
	}}
	up := &stage{name: "flserve upload", fn: func() error {
		return client.Upload(ctx, nextID(), stream)
	}}
	ack := &stage{name: "flserve upload state", fn: func() error {
		_, err := client.UploadState(ctx, nextID(), update, core.Options{}, nil)
		return err
	}}
	// The same upload with the live round's 2-way encode pool, where the
	// encode can overlap the socket.
	ack2 := &stage{name: "flserve upload state (2-way)", fn: func() (err error) {
		own, err = client.UploadState(ctx, nextID(), update, core.Options{}, encPool)
		return err
	}}
	refSet := &stage{name: "delta set reference", fn: func() error {
		dc.SetReference(ref)
		return nil
	}}
	dcomp := &stage{name: "delta compress", fn: func() (err error) {
		dstream, dstats, err = dc.Compress(ctx, update)
		return err
	}}
	if err := runStages(budget, []*stage{
		sz2c, sz2d, hufE, hufD, llc, lld, corec, corec2, cored, wf, wd, ing, up, ack, ack2, refSet, dcomp,
	}); err != nil {
		return nil, err
	}

	// Once each: the delta stream must decode against its reference; the
	// throttled writer's pacing against the link model, on at most 256 KiB
	// (0.2 s at 10 Mbps); and one upload over the 10 Mbps link, which is
	// Eqn 1's left-hand side, measured.
	back, _, err := dc.Decompress(ctx, dstream)
	if err != nil {
		return nil, fmt.Errorf("delta decompress: %w", err)
	}
	core.Release(back)
	paced := framed[:min(len(framed), 256<<10)]
	t0 := time.Now()
	if _, err := edgeLink.ThrottleWriter(io.Discard).Write(paced); err != nil {
		return nil, err
	}
	pacedFor, pacedWant := time.Since(t0).Seconds(), edgeLink.TransmitTime(len(paced)).Seconds()
	edge := flserve.Client{Addr: client.Addr, Link: edgeLink}
	t0 = time.Now()
	throttled, err := edge.UploadState(ctx, nextID(), update, core.Options{}, encPool)
	if err != nil {
		return nil, fmt.Errorf("throttled upload: %w", err)
	}
	edgeAck := time.Since(t0).Seconds()
	if w.link.BandwidthMbps > 0 {
		own = throttled // the overlap metrics describe the workload's own link
	}
	if err := srv.Close(); err != nil {
		return nil, fmt.Errorf("replay server close: %w", err)
	}
	if snap := srv.Snapshot(); snap.Rejected != 0 || snap.Shed != 0 {
		return nil, fmt.Errorf("replay server rejected %d and shed %d", snap.Rejected, snap.Shed)
	}

	blobBytes, codedBytes, errOverBound := 0, 0, 0.0
	for i, d := range lossy {
		blobBytes += len(blobs[i])
		codedBytes += len(coded[i])
		worst := 0.0
		for j, v := range d {
			worst = max(worst, math.Abs(float64(v)-float64(recon[i][j])))
		}
		errOverBound = max(errOverBound, ratio(worst, relBound*ebcl.ValueRange(d)))
	}
	tensors := float64(max(1, len(lossy)))
	ms := func(s float64) float64 { return s * 1e3 }
	mbps := func(bytes int, s float64) float64 { return ratio(float64(bytes)/1e6, s) }
	sum := make([]float64, len(ack.secs))
	for i := range sum {
		sum[i] = ratio(corec.secs[i]+up.secs[i], ack.secs[i])
	}
	return map[string]float64{
		"sz2.compress_mbps":            mbps(lossyBytes, sz2c.sec()),
		"sz2.decompress_mbps":          mbps(lossyBytes, sz2d.sec()),
		"sz2.ratio":                    ratio(float64(lossyBytes), float64(blobBytes)),
		"sz2.max_err_over_bound":       errOverBound,
		"sz2.compress_allocs_per_op":   sz2c.allocsPerCall() / tensors,
		"sz2.decompress_allocs_per_op": sz2d.allocsPerCall() / tensors,

		// MB/s of the float32 data the symbols stand for, comparable with sz2.*.
		"huffman.encode_mbps":     mbps(lossyBytes, hufE.sec()),
		"huffman.decode_mbps":     mbps(lossyBytes, hufD.sec()),
		"huffman.bits_per_symbol": ratio(8*float64(codedBytes), float64(symbols)),

		"lossless.compress_mbps":   mbps(len(metaRaw), llc.sec()),
		"lossless.decompress_mbps": mbps(len(metaRaw), lld.sec()),
		"lossless.ratio":           ratio(float64(len(metaRaw)), float64(len(metaPacked))),

		"core.compress_ms":              ms(corec.sec()),
		"core.encode_work_ms":           ms(median(works)),
		"core.encode_self_ms":           ms(corec.minus(sz2c, llc)),
		"core.parallel_eff":             median(effs),
		"core.decompress_ms":            ms(cored.sec()),
		"core.decode_self_ms":           ms(cored.minus(sz2d, lld)),
		"core.stream_ratio":             cstats.Ratio(),
		"core.chunked_tensors":          float64(cstats.ChunkedTensors),
		"core.compress_allocs_per_op":   corec.allocsPerCall(),
		"core.decompress_allocs_per_op": cored.allocsPerCall(),

		"wire.frame_mbps":        mbps(len(stream), wf.sec()),
		"wire.deframe_mbps":      mbps(len(framed), wd.sec()),
		"wire.overhead_bytes":    float64(len(framed) - len(stream)),
		"wire.frames_per_update": float64(frames),

		"netsim.pacing_err_frac": ratio(math.Abs(pacedFor-pacedWant), pacedWant),
		"netsim.eqn1_speedup":    ratio(edgeLink.TransmitTime(rawBytes).Seconds(), edgeAck),

		"agg.ingest_ms":           ms(ing.sec()),
		"agg.ingest_mbps":         mbps(rawBytes, ing.sec()),
		"agg.fold_self_ms":        ms(ing.minus(cored, wd)),
		"agg.allocs_per_update":   ing.allocsPerCall(),
		"agg.alloc_kb_per_update": ing.bytesPerCall() / 1e3,

		"flserve.upload_ms":            ms(up.sec()),
		"flserve.conn_self_ms":         ms(up.minus(ing)),
		"flserve.encode_overlap_ratio": own.EncodeOverlapRatio(),
		"flserve.write_wait_frac":      ratio(own.WriteWait.Seconds(), own.CompressTime.Seconds()),

		"delta.encode_cost_x":     ratio(dcomp.sec(), corec.sec()),
		"delta.residual_win_frac": ratio(float64(dstats.DeltaTensors), float64(dstats.LossyTensors)),
		"delta.bytes_reduction":   1 - ratio(float64(len(dstream)), float64(len(stream))),
		"delta.ref_set_ms":        ms(refSet.sec()),

		"trace.stage_sum_over_ack": median(sum),
	}, nil
}
