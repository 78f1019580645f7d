package core

import (
	"bytes"
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/compressors"
	"repro/internal/ebcl"
	"repro/internal/promtext"
	"repro/internal/sz2"
	"repro/internal/szx"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// renamed is a codec under another name, for metrics keyed by codec.
type renamed struct {
	ebcl.Compressor
	name string
}

func (r renamed) Name() string { return r.name }

// TestRegisterMetricsCoversLaterCodecs: the stage timers are created per
// codec on first use, so a registry must show a codec seen before
// RegisterMetrics ran and one first seen afterwards alike — wiring code calls
// RegisterMetrics at start-up, before any update has named its codec.
func TestRegisterMetricsCoversLaterCodecs(t *testing.T) {
	stageFor(renamed{szx.NewCompressor(), "test-seen-before"}).encode.Observe(1)
	reg := telemetry.NewRegistry()
	RegisterMetrics(reg)
	stageFor(renamed{szx.NewCompressor(), "test-seen-after"}).decode.Observe(1)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := promtext.ParseText(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct{ name, key, value string }{
		{"fedsz_encode_seconds_count", "codec", "test-seen-before"},
		{"fedsz_decode_seconds_count", "codec", "test-seen-after"},
		{"fedsz_delta_sections", "mode", "delta"},
		{"fedsz_delta_sections", "mode", "constant"},
		{"fedsz_delta_sections", "mode", "absolute"},
	} {
		if _, ok := promtext.FindSample(samples, want.name, want.key, want.value); !ok {
			t.Errorf("scrape has no %s{%s=%q}:\n%s", want.name, want.key, want.value, buf.String())
		}
	}
	if s, ok := promtext.FindSample(samples, "fedsz_decode_seconds_count", "codec", "test-seen-after"); ok && s.Value != 1 {
		t.Errorf("late codec's decode count = %v, want 1", s.Value)
	}
}

// TestStageTimersCountDecodes: decoding an sz2 stream observes
// fedsz_stage_seconds' reconstruct stage once per lossy tensor and its
// huffman stage once per Huffman-coded blob, a chunked tensor's chunks being
// one blob each.
func TestStageTimersCountDecodes(t *testing.T) {
	reg := telemetry.NewRegistry()
	RegisterMetrics(reg)
	count := func(stage string) float64 {
		t.Helper()
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		samples, err := promtext.ParseText(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		s, _ := promtext.FindSample(samples, "fedsz_stage_seconds_count",
			"stage", stage, "codec", "sz2", "dir", "decode")
		return s.Value
	}
	rng := rand.New(rand.NewPCG(44, 5))
	stream, st, err := Compress(skewedDict(rng, 18432), Options{ChunkElems: 8192})
	if err != nil {
		t.Fatal(err)
	}
	if st.LossyTensors != 2 || st.ChunkedTensors != 1 {
		t.Fatalf("%d lossy tensors, %d chunked; want 2 and 1", st.LossyTensors, st.ChunkedTensors)
	}
	huffman0, reconstruct0 := count("huffman"), count("reconstruct")
	sd, _, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	Release(sd)
	// fc.weight's 18432 elements split into three chunks, conv.weight is one.
	if got := count("huffman") - huffman0; got != 4 {
		t.Errorf("huffman stage observed %v blobs, want 4", got)
	}
	if got := count("reconstruct") - reconstruct0; got != 2 {
		t.Errorf("reconstruct stage observed %v tensors, want 2", got)
	}
}

// TestHuffmanStageOnlyForHuffmanCodecs: fedsz_stage_seconds has a huffman
// series only for the codecs with a Huffman stage. szx and zfp decodes
// export none, where a series would stay at zero forever; sz2 and sz3 do.
func TestHuffmanStageOnlyForHuffmanCodecs(t *testing.T) {
	reg := telemetry.NewRegistry()
	RegisterMetrics(reg)
	rng := rand.New(rand.NewPCG(45, 6))
	for _, name := range []string{"sz2", "sz3", "szx", "zfp"} {
		lossy, err := compressors.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		stream, _, err := Compress(skewedDict(rng, 4096), Options{Lossy: lossy})
		if err != nil {
			t.Fatal(err)
		}
		sd, _, err := Decompress(stream)
		if err != nil {
			t.Fatal(err)
		}
		Release(sd)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := promtext.ParseText(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		codec string
		want  bool
	}{{"sz2", true}, {"sz3", true}, {"szx", false}, {"zfp", false}} {
		_, ok := promtext.FindSample(samples, "fedsz_stage_seconds_count",
			"stage", "huffman", "codec", c.codec, "dir", "decode")
		if ok != c.want {
			t.Errorf("huffman series for %s: %v, want %v", c.codec, ok, c.want)
		}
		if _, ok := promtext.FindSample(samples, "fedsz_stage_seconds_count",
			"stage", "reconstruct", "codec", c.codec, "dir", "decode"); !ok {
			t.Errorf("no reconstruct series for %s", c.codec)
		}
	}
}

// TestStageTimersCountEncodes: encoding an sz2 stream observes
// fedsz_stage_seconds' quantize and huffman encode stages once per blob, a
// chunked tensor's chunks being one blob each, and its lossless stage at
// most once per blob (only where the keep rule tries it).
func TestStageTimersCountEncodes(t *testing.T) {
	reg := telemetry.NewRegistry()
	RegisterMetrics(reg)
	count := func(stage string) float64 {
		t.Helper()
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		samples, err := promtext.ParseText(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		s, ok := promtext.FindSample(samples, "fedsz_stage_seconds_count",
			"stage", stage, "codec", "sz2", "dir", "encode")
		if !ok {
			t.Fatalf("no %s encode series for sz2", stage)
		}
		return s.Value
	}
	rng := rand.New(rand.NewPCG(46, 7))
	sd := skewedDict(rng, 18432)
	if _, _, err := Compress(sd, Options{}); err != nil { // sz2 seen, so registered
		t.Fatal(err)
	}
	quantize0, huffman0, lossless0 := count("quantize"), count("huffman"), count("lossless")
	if _, _, err := Compress(sd, Options{ChunkElems: 8192}); err != nil {
		t.Fatal(err)
	}
	// fc.weight's 18432 elements split into three chunks, conv.weight is one.
	if got := count("quantize") - quantize0; got != 4 {
		t.Errorf("quantize stage observed %v blobs, want 4", got)
	}
	if got := count("huffman") - huffman0; got != 4 {
		t.Errorf("huffman encode stage observed %v blobs, want 4", got)
	}
	if got := count("lossless") - lossless0; got > 4 {
		t.Errorf("lossless stage observed %v blobs, want at most 4", got)
	}
}

// TestResolvedBoundObservations: decoding observes fedsz_resolved_bound once
// per lossy tensor whose stream records a bound, at that bound — an ABS bound
// as given, a REL bound times the tensor's value range, a chunked tensor's
// read from its first chunk. A constant tensor's REL bound resolves to 0 and
// its stream takes the constant layout, which records none (under ABS it runs
// the full pipeline); zfp's fixed precision has no formal bound.
func TestResolvedBoundObservations(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 8))
	sd := skewedDict(rng, 18432)
	flat := tensor.New(2048)
	for i := range flat.Data {
		flat.Data[i] = 0.25
	}
	sd.Add("flat.weight", tensor.KindWeight, flat)
	fcRange := ebcl.ValueRange(sd.Get("fc.weight").Data)
	convRange := ebcl.ValueRange(sd.Get("conv.weight").Data)
	for _, c := range []struct {
		codec string
		p     ebcl.Params
		want  []float64
	}{
		{"sz2", ebcl.Abs(1e-3), []float64{1e-3, 1e-3, 1e-3}},
		{"sz2", ebcl.Rel(1e-2), []float64{1e-2 * fcRange, 1e-2 * convRange}},
		{"zfp", ebcl.Rel(1e-2), nil},
	} {
		lossy, err := compressors.Get(c.codec)
		if err != nil {
			t.Fatal(err)
		}
		h := stageFor(lossy).bound
		count0, sum0 := h.Count(), h.Sum()
		stream, st, err := Compress(sd, Options{Lossy: lossy, LossyParams: c.p, ChunkElems: 8192})
		if err != nil {
			t.Fatal(err)
		}
		if st.LossyTensors != 3 || st.ChunkedTensors != 1 {
			t.Fatalf("%s %v: %d lossy tensors, %d chunked; want 3 and 1", c.codec, c.p, st.LossyTensors, st.ChunkedTensors)
		}
		out, _, err := Decompress(stream)
		if err != nil {
			t.Fatal(err)
		}
		Release(out)
		want := 0.0
		for _, eb := range c.want {
			want += eb
		}
		if n := h.Count() - count0; n != uint64(len(c.want)) {
			t.Errorf("%s %v: %d observations, want %d", c.codec, c.p, n, len(c.want))
		}
		if got := h.Sum() - sum0; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s %v: observed bounds sum to %g, want %g", c.codec, c.p, got, want)
		}
	}
}

// TestOnlyShippedBlobsObserved: a tensor encoded against a reference
// observes its encode series once, for the blob that ships. Above
// sampleMinElems (64 Ki elements) the policy encodes two samples of each
// candidate, which observe nothing; at 16 Ki it encodes both candidates
// whole and observes only the one it keeps. The residual is the reference
// plus noise of σ 0.02 under REL 1e-2, which both sizes encode as a residual.
func TestOnlyShippedBlobsObserved(t *testing.T) {
	lossy, err := compressors.Get("sz2")
	if err != nil {
		t.Fatal(err)
	}
	tm := stageFor(lossy).timers
	for _, n := range []int{16 << 10, 64 << 10} {
		rng := rand.New(rand.NewPCG(55, uint64(n)))
		ref, sd := tensor.NewStateDict(), tensor.NewStateDict()
		base, update := tensor.New(n), tensor.New(n)
		for i := range base.Data {
			base.Data[i] = float32(0.05 * (rng.ExpFloat64() - rng.ExpFloat64()))
			update.Data[i] = base.Data[i] + float32(0.02*rng.NormFloat64())
		}
		ref.Add("fc.weight", tensor.KindWeight, base)
		sd.Add("fc.weight", tensor.KindWeight, update)
		counts := func() [3]uint64 {
			return [3]uint64{tm.Utilization.Count(), tm.Quantize.Count(), tm.HuffmanEncode.Count()}
		}
		before := counts()
		if _, st, err := Compress(sd, Options{Lossy: lossy, Reference: ref, RefEpoch: 1}); err != nil || st.DeltaTensors != 1 {
			t.Fatalf("n=%d: %v, %d delta tensors, want 1", n, err, st.DeltaTensors)
		}
		after := counts()
		for i, name := range []string{"utilization", "quantize", "huffman"} {
			if got := after[i] - before[i]; got != 1 {
				t.Errorf("n=%d: %s observed %d times, want 1", n, name, got)
			}
		}
	}
}

// TestUnheldEncodeObservesNothing: a codec records no encode on its own. A
// bare sz2 CompressAppend, outside any encode of this package, leaves
// fedsz_encode_bytes_total and fedsz_bound_utilization as they were, where
// the same tensor compressed by Compress moves both.
func TestUnheldEncodeObservesNothing(t *testing.T) {
	reg := telemetry.NewRegistry()
	RegisterMetrics(reg)
	scrape := func() (total, count float64) {
		t.Helper()
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		samples, err := promtext.ParseText(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			switch {
			case s.Labels["codec"] != "sz2":
			case s.Name == "fedsz_encode_bytes_total":
				total += s.Value
			case s.Name == "fedsz_bound_utilization_count":
				count += s.Value
			}
		}
		return total, count
	}
	rng := rand.New(rand.NewPCG(56, 7))
	w := tensor.New(4096)
	for i := range w.Data {
		w.Data[i] = float32(0.05 * rng.NormFloat64())
	}
	sd := tensor.NewStateDict()
	sd.Add("fc.weight", tensor.KindWeight, w)
	total0, count0 := scrape()
	if _, _, err := Compress(sd, Options{}); err != nil {
		t.Fatal(err)
	}
	total1, count1 := scrape()
	if total1 <= total0 || count1 != count0+1 {
		t.Fatalf("Compress: bytes %v -> %v, utilization count %v -> %v; want both to move", total0, total1, count0, count1)
	}
	if _, err := sz2.NewCompressor().CompressAppend(nil, w.Data, ebcl.Rel(1e-2)); err != nil {
		t.Fatal(err)
	}
	if total, count := scrape(); total != total1 || count != count1 {
		t.Fatalf("bare CompressAppend: bytes %v -> %v, utilization count %v -> %v; want neither to move", total1, total, count1, count)
	}
}

// TestFailedCandidateNotObserved: an encode that fails partway observes
// nothing. A 40 Ki-element tensor in five chunks is encoded serially against
// a reference by a codec that refuses any input holding a sentinel, placed
// in the fourth chunk outside the sample's runs. At σ 0.1 the sample picks
// the absolute candidate, whose fourth chunk fails after the other four
// encode, and the residual ships; at σ 0.02 it picks the residual, which
// fails so, and the absolute ships. Either way the shipped blob's five
// chunks are observed once each, and the byte parts add up to the stream.
func TestFailedCandidateNotObserved(t *testing.T) {
	const n, chunk, sentinel = 40 << 10, 8 << 10, 0.40625
	at := 3*sampleStride + sampleRun + 7 // in chunk 3, between two sample runs
	sz2, err := compressors.Get("sz2")
	if err != nil {
		t.Fatal(err)
	}
	lossy := sentinelRefuser{sz2, sentinel}
	tm, parts := stageFor(lossy).timers, stageFor(lossy).bytes
	counts := func() (c [4]uint64) {
		c[0], c[1], c[2] = tm.Utilization.Count(), tm.Quantize.Count(), tm.HuffmanEncode.Count()
		for p := range parts {
			if v := parts[p].Value(); ebcl.Part(p) == ebcl.PartLosslessSaved {
				c[3] -= v
			} else {
				c[3] += v
			}
		}
		return c
	}
	for _, c := range []struct {
		sigma       float64
		inResidual  bool // the sentinel is in data − ref, not in data
		wantResidue bool // the residual ships
	}{
		{0.1, false, true},
		{0.02, true, false},
	} {
		data, ref := laplaceTensor(rand.New(rand.NewPCG(55, 2)), n, c.sigma)
		if c.inResidual {
			data.Data[at], ref.Data[at] = 0, -sentinel
		} else {
			data.Data[at] = sentinel
		}
		sd, refSD := tensor.NewStateDict(), tensor.NewStateDict()
		sd.Add("w", tensor.KindWeight, data)
		refSD.Add("w", tensor.KindWeight, ref)
		before := counts()
		stream, st, err := CompressWith(context.Background(), nil, sd,
			Options{Lossy: lossy, Reference: refSD, RefEpoch: 1, ChunkElems: chunk})
		if err != nil {
			t.Fatalf("σ=%g: %v", c.sigma, err)
		}
		if st.ChunkedTensors != 1 || (st.DeltaTensors == 1) != c.wantResidue {
			t.Fatalf("σ=%g: %d chunked, %d residual tensors, want 1 and residual=%v",
				c.sigma, st.ChunkedTensors, st.DeltaTensors, c.wantResidue)
		}
		after := counts()
		for i, name := range []string{"utilization", "quantize", "huffman"} {
			if got := after[i] - before[i]; got != n/chunk {
				t.Errorf("σ=%g: %s observed %d times, want %d", c.sigma, name, got, n/chunk)
			}
		}
		if got := after[3] - before[3]; got != uint64(len(stream)) {
			t.Errorf("σ=%g: the byte parts add up to %d, the stream is %d", c.sigma, got, len(stream))
		}
	}
}
