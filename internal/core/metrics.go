package core

// Pipeline metrics. Like the buffer pools in sched, the codec pipeline is
// process-wide, so its counters are package-level values that every encode
// and decode updates; RegisterMetrics names them on a registry the program
// built. The stage timers are, per lossy codec, one encode and one decode
// latency histogram of the whole state dict and the decode-stage histograms
// (fedsz_stage_seconds): reconstruct, each tensor's decode task, and, for a
// codec with a Huffman stage (huffmanTimed: sz2 and sz3), huffman, the
// Huffman decode inside it, which the codec's ebcl.Format times itself. They
// are created the first time a codec is seen. The lookup is a plain map
// behind an RWMutex — a read-lock map hit boxes nothing, so the steady-state
// cost per encode/decode call is one RLock, and per observation one Observe
// (both allocation-free).

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
	encode, decode       *telemetry.Histogram
	huffman, reconstruct *telemetry.Histogram // huffman is nil without a Huffman stage
}

// huffmanTimed is a codec whose blobs carry a Huffman stage, timed by the
// histogram it returns.
type huffmanTimed interface {
	HuffmanTimer() *telemetry.Histogram
}

// stageHelp is fedsz_stage_seconds' help text: every registration of the
// family, the aggregator's fold included, must carry the same one.
const stageHelp = "Time of one pipeline stage: huffman is a blob's Huffman decode, reconstruct a tensor's whole decode task (its Huffman decode included), fold an update's commit into the accumulator."

// RegisterStage exports h as the series {stage, codec, dir="decode"} of
// fedsz_stage_seconds: for a stage timed outside this package, the
// aggregator's fold.
func RegisterStage(reg *telemetry.Registry, stage, codec string, h *telemetry.Histogram) {
	reg.Register("fedsz_stage_seconds", stageHelp, h,
		telemetry.L("stage", stage), telemetry.L("codec", codec), telemetry.L("dir", "decode"))
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
	if h.huffman != nil {
		RegisterStage(reg, "huffman", codec, h.huffman)
	}
	RegisterStage(reg, "reconstruct", codec, h.reconstruct)
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
		reconstruct: telemetry.NewHistogram(telemetry.DurationBuckets),
	}
	if ht, ok := lossy.(huffmanTimed); ok {
		h.huffman = ht.HuffmanTimer()
	}
	for _, reg := range stageRegs {
		h.register(reg, codec)
	}
	stages[codec] = h
	return h
}
