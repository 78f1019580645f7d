package core

// Pipeline metrics. Like the buffer pools in sched, the codec pipeline is
// process-wide, so its counters are package-level values that every encode
// and decode updates; RegisterMetrics names them on a registry the program
// built. The stage timers are, per lossy codec, one encode and one decode
// latency histogram of the whole state dict, the decoded updates'
// compression ratio (fedsz_update_ratio), the absolute bound each decoded
// tensor was encoded under (fedsz_resolved_bound, for a codec whose streams
// record it: ResolvedBound) and the stage histograms of
// fedsz_stage_seconds: reconstruct, each tensor's decode task, and, for a
// codec with the SZ-family back end (a non-nil StageTimers: sz2 and sz3),
// the stages its ebcl.Format times itself — quantize, huffman and lossless
// on encode, huffman on decode — beside each encoded blob's share of its
// bound (fedsz_bound_utilization). They are created the first time a codec
// is seen. The wire framing's frame stage, both directions, is one pair of
// histograms for every codec (FrameTimers). The lookup is a plain map
// behind an RWMutex — a read-lock map hit boxes nothing, so the
// steady-state cost per encode/decode call is one RLock, and per
// observation one Observe (both allocation-free).

import (
	"sync"

	"repro/internal/ebcl"
	"repro/internal/telemetry"
)

// Delta (v3) stream counters, updated by CompressSections. The three section
// counters partition the sections: a constant residual counts only as
// constant, not also as delta.
var deltaBytesSaved, deltaSections, constantSections, absoluteSections telemetry.Counter

type stageHists struct {
	encode, decode *telemetry.Histogram
	ratio          *telemetry.Histogram // each decoded update's raw / stream bytes
	bound          *telemetry.Histogram // each decoded lossy tensor's absolute bound
	reconstruct    *telemetry.Histogram
	timers         *ebcl.StageTimers  // nil without the SZ-family back end
	bytes          *ebcl.ByteCounters // the timers' Bytes, or the codec's own
}

// FrameTimers are the wire framing's frame+CRC stage, encode and decode,
// which package wire observes per frame.
var FrameTimers = struct{ Encode, Decode *telemetry.Histogram }{
	telemetry.NewHistogram(telemetry.DurationBuckets), telemetry.NewHistogram(telemetry.DurationBuckets),
}

// stageHelp is fedsz_stage_seconds' help text: every registration of the
// family, the aggregator's fold included, must carry the same one.
const stageHelp = "Time of one pipeline stage. Encode: quantize is a blob's predict+quantize, huffman its Huffman encode, lossless its trailing lossless stage, frame one wire frame's assembly and CRC. Decode: frame one frame's CRC check, huffman a blob's Huffman decode, reconstruct a tensor's whole decode task (its Huffman decode included), fold an update's commit into the accumulator."

// CountFrameBytes counts n bytes of wire framing, around a stream encoded
// under opts, as fedsz_encode_bytes_total's frames part.
func CountFrameBytes(opts Options, n int) {
	stageFor(opts.withDefaults().Lossy).bytes.Add(ebcl.PartFrames, n)
}

// RegisterStage exports h as the series {stage, codec, dir} of
// fedsz_stage_seconds: for a stage timed outside this package, the
// aggregator's fold.
func RegisterStage(reg *telemetry.Registry, stage, codec, dir string, h *telemetry.Histogram) {
	reg.Register("fedsz_stage_seconds", stageHelp, h,
		telemetry.L("stage", stage), telemetry.L("codec", codec), telemetry.L("dir", dir))
}

// stageSeries is one fedsz_stage_seconds series this package times.
type stageSeries struct {
	stage, codec, dir string
	h                 *telemetry.Histogram
}

// series lists h's fedsz_stage_seconds series for codec.
func (h *stageHists) series(codec string) []stageSeries {
	out := []stageSeries{{"reconstruct", codec, "decode", h.reconstruct}}
	if t := h.timers; t != nil {
		out = append(out, stageSeries{"huffman", codec, "decode", t.HuffmanDecode},
			stageSeries{"quantize", codec, "encode", t.Quantize},
			stageSeries{"huffman", codec, "encode", t.HuffmanEncode},
			stageSeries{"lossless", codec, "encode", t.Lossless})
	}
	return out
}

// TraceStages emits to t one "stage" event per fedsz_stage_seconds series
// this package and wire time — the frame stage, then each codec seen so far
// — with its observation count and summed microseconds so far: the scrape's
// stage totals, in a trace. A nil t emits nothing.
func TraceStages(t *telemetry.Tracer) {
	if t == nil {
		return
	}
	all := []stageSeries{{"frame", "all", "encode", FrameTimers.Encode}, {"frame", "all", "decode", FrameTimers.Decode}}
	stageMu.RLock()
	for codec, h := range stages {
		all = append(all, h.series(codec)...)
	}
	stageMu.RUnlock()
	for _, s := range all {
		t.Event("stage", telemetry.A("stage", s.stage), telemetry.A("codec", s.codec), telemetry.A("dir", s.dir),
			telemetry.A("count", s.h.Count()), telemetry.A("sum_us", int64(s.h.Sum()*1e6)))
	}
}

var (
	stageMu sync.RWMutex
	stages  = map[string]*stageHists{}
	// stageRegs are the registries RegisterMetrics was given: a codec first
	// seen afterwards is attached to each of them by stageFor.
	stageRegs []*telemetry.Registry
)

// RegisterMetrics exports the package-wide pipeline metrics on reg: the
// delta counters now, and the per-codec stage timers for every codec seen so
// far or later. Call it once per registry from wiring code.
func RegisterMetrics(reg *telemetry.Registry) {
	reg.Register("fedsz_delta_bytes_saved",
		"Bytes saved by codec-encoded residual tensor sections over their absolute candidates (estimated from a sample for tensors above 32 Ki elements).",
		&deltaBytesSaved)
	reg.Register("fedsz_delta_sections",
		"Tensor sections in delta-capable (v3) streams, by chosen encoding mode.",
		&deltaSections, telemetry.L("mode", "delta"))
	reg.Register("fedsz_delta_sections",
		"Tensor sections in delta-capable (v3) streams, by chosen encoding mode.",
		&constantSections, telemetry.L("mode", "constant"))
	reg.Register("fedsz_delta_sections",
		"Tensor sections in delta-capable (v3) streams, by chosen encoding mode.",
		&absoluteSections, telemetry.L("mode", "absolute"))
	RegisterStage(reg, "frame", "all", "encode", FrameTimers.Encode)
	RegisterStage(reg, "frame", "all", "decode", FrameTimers.Decode)
	stageMu.Lock()
	defer stageMu.Unlock()
	for codec, h := range stages {
		h.register(reg, codec)
	}
	stageRegs = append(stageRegs, reg)
}

func (h *stageHists) register(reg *telemetry.Registry, codec string) {
	reg.Register("fedsz_encode_seconds",
		"Full-statedict encode wall time, by lossy codec.", h.encode, telemetry.L("codec", codec))
	reg.Register("fedsz_decode_seconds",
		"Full-statedict decode wall time, by lossy codec.", h.decode, telemetry.L("codec", codec))
	reg.Register("fedsz_update_ratio",
		"Compression ratio of each decoded update: raw state-dict bytes (4 B an element) over FedSZ stream bytes, by lossy codec.",
		h.ratio, telemetry.L("codec", codec))
	reg.Register("fedsz_resolved_bound",
		"Absolute error bound each decoded lossy tensor was encoded under (a REL bound resolved against the tensor's value range), by lossy codec; constant tensors and codecs without a formal bound record none.",
		h.bound, telemetry.L("codec", codec))
	for _, s := range h.series(codec) {
		RegisterStage(reg, s.stage, s.codec, s.dir, s.h)
	}
	for part, name := range ebcl.PartNames {
		reg.Register("fedsz_encode_bytes_total",
			"Bytes this process encoded, by part and lossy codec: counted where each part is written, for the tensor sections that ship (a throwaway encode counts nothing); a stream's parts add up to its bytes once lossless_saved is subtracted, and frames counts the framing of streams encoded straight into wire frames.",
			&h.bytes[part], telemetry.L("part", name), telemetry.L("codec", codec))
	}
	if t := h.timers; t != nil {
		reg.Register("fedsz_bound_utilization",
			"Largest reconstruction error over the absolute bound of each encoded full-layout blob, by lossy codec (sz2 and sz3); above 1 the bound broke.",
			t.Utilization, telemetry.L("codec", codec))
	}
}

// stageFor returns the stage histograms labeled with lossy's name.
func stageFor(lossy ebcl.Compressor) *stageHists {
	codec := lossy.Name()
	stageMu.RLock()
	h := stages[codec]
	stageMu.RUnlock()
	if h != nil {
		return h
	}
	stageMu.Lock()
	defer stageMu.Unlock()
	if h := stages[codec]; h != nil {
		return h
	}
	h = &stageHists{
		encode:      telemetry.NewHistogram(telemetry.DurationBuckets),
		decode:      telemetry.NewHistogram(telemetry.DurationBuckets),
		ratio:       telemetry.NewHistogram(telemetry.CompressionBuckets),
		bound:       telemetry.NewHistogram(telemetry.BoundBuckets),
		reconstruct: telemetry.NewHistogram(telemetry.DurationBuckets),
		timers:      lossy.StageTimers(),
		bytes:       new(ebcl.ByteCounters),
	}
	if h.timers != nil {
		h.bytes = &h.timers.Bytes
	}
	for _, reg := range stageRegs {
		h.register(reg, codec)
	}
	stages[codec] = h
	return h
}
