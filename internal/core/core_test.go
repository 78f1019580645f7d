package core

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/ebcl"
	"repro/internal/lossless"
	"repro/internal/nn/models"
	"repro/internal/sz2"
	"repro/internal/szx"
	"repro/internal/tensor"
)

// modelDict builds a small but structurally realistic state dict: big
// weights, small weights (below threshold), biases, running stats, scalars.
func modelDict(rng *rand.Rand) *tensor.StateDict {
	sd := tensor.NewStateDict()
	big := tensor.New(64, 32, 3, 3) // 18432 elems: lossy path
	for i := range big.Data {
		big.Data[i] = float32(0.03 * (rng.ExpFloat64() - rng.ExpFloat64()))
	}
	sd.Add("conv1.weight", tensor.KindWeight, big)
	small := tensor.New(10, 8) // 80 elems: below threshold, lossless path
	for i := range small.Data {
		small.Data[i] = float32(rng.NormFloat64())
	}
	sd.Add("head.weight", tensor.KindWeight, small)
	bias := tensor.New(64)
	for i := range bias.Data {
		bias.Data[i] = float32(0.01 * rng.NormFloat64())
	}
	sd.Add("conv1.bias", tensor.KindBias, bias)
	mean := tensor.New(64)
	variance := tensor.New(64)
	for i := range mean.Data {
		mean.Data[i] = float32(rng.NormFloat64())
		variance.Data[i] = float32(1 + 0.1*rng.NormFloat64())
	}
	sd.Add("bn1.running_mean", tensor.KindRunningStat, mean)
	sd.Add("bn1.running_var", tensor.KindRunningStat, variance)
	count := tensor.New(1)
	count.Data[0] = 7
	sd.Add("bn1.num_batches_tracked", tensor.KindScalarMeta, count)
	return sd
}

func TestRoundTripDefaults(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	sd := modelDict(rng)
	stream, stats, err := Compress(sd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ratio() < 2 {
		t.Errorf("ratio %.2f, want > 2 on weight-heavy dict", stats.Ratio())
	}
	if stats.LossyTensors != 1 || stats.LosslessTensors != 5 {
		t.Fatalf("partition counts lossy=%d lossless=%d", stats.LossyTensors, stats.LosslessTensors)
	}
	got, dstats, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	if dstats.DecompressTime <= 0 {
		t.Error("decompress time not measured")
	}
	// Structure and order preserved.
	if got.Len() != sd.Len() {
		t.Fatalf("entries %d != %d", got.Len(), sd.Len())
	}
	for i, e := range sd.Entries() {
		g := got.Entries()[i]
		if g.Name != e.Name || g.Kind != e.Kind {
			t.Fatalf("entry %d: %s/%v != %s/%v", i, g.Name, g.Kind, e.Name, e.Kind)
		}
		if len(g.Tensor.Shape) != len(e.Tensor.Shape) {
			t.Fatalf("entry %d rank changed", i)
		}
	}
	// Lossless partition must be bit-exact.
	for _, name := range []string{"head.weight", "conv1.bias", "bn1.running_mean", "bn1.running_var", "bn1.num_batches_tracked"} {
		a, b := sd.Get(name), got.Get(name)
		for i := range a.Data {
			if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
				t.Fatalf("%s not bit-exact at %d", name, i)
			}
		}
	}
	// Lossy partition must respect the relative bound.
	a, b := sd.Get("conv1.weight"), got.Get("conv1.weight")
	ebAbs := 1e-2 * ebcl.ValueRange(a.Data)
	if got := ebcl.MaxAbsError(a.Data, b.Data); got > ebAbs*(1+1e-6) {
		t.Fatalf("weight error %g exceeds %g", got, ebAbs)
	}
}

func TestThresholdGate(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	sd := modelDict(rng)
	// A huge threshold forces everything through the lossless path.
	stream, stats, err := Compress(sd, Options{Threshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if stats.LossyTensors != 0 {
		t.Fatalf("lossy tensors %d with huge threshold", stats.LossyTensors)
	}
	got, _, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	d, err := got.MaxAbsDiff(sd)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("all-lossless round trip not exact: %g", d)
	}
	// Negative threshold lets even tiny weights take the lossy path.
	_, stats2, err := Compress(sd, Options{Threshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.LossyTensors != 2 {
		t.Fatalf("lossy tensors %d with disabled gate, want 2", stats2.LossyTensors)
	}
}

func TestDisablePartitioningAblation(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	sd := modelDict(rng)
	stream, stats, err := Compress(sd, Options{DisablePartitioning: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.LosslessTensors != 0 {
		t.Fatalf("lossless tensors %d with partitioning disabled", stats.LosslessTensors)
	}
	got, _, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	// Running stats are now lossy: error is generally nonzero. The point of
	// the ablation is that metadata degrades; verify it did get perturbed
	// while remaining decodable.
	if got.Len() != sd.Len() {
		t.Fatal("structure lost")
	}
}

func TestAlternativeCompressors(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	sd := modelDict(rng)
	stream, _, err := Compress(sd, Options{
		Lossy:       szx.NewCompressor(),
		LossyParams: ebcl.Rel(1e-3),
		Lossless:    lossless.NewGzip(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	a, b := sd.Get("conv1.weight"), got.Get("conv1.weight")
	ebAbs := 1e-3 * ebcl.ValueRange(a.Data)
	if gotErr := ebcl.MaxAbsError(a.Data, b.Data); gotErr > ebAbs*(1+1e-6) {
		t.Fatalf("szx error %g exceeds %g", gotErr, ebAbs)
	}
}

func TestProfileModelRatiosMatchPaperShape(t *testing.T) {
	// On a (scaled) AlexNet profile at REL 1e-2 the paper reports ~11-13x;
	// accept a generous band around that.
	rng := rand.New(rand.NewPCG(9, 10))
	sd, err := models.BuildProfile("alexnet", rng, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := Compress(sd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := stats.Ratio()
	if r < 5 || r > 40 {
		t.Errorf("alexnet profile ratio %.2f outside plausible band [5,40]", r)
	}
	t.Logf("alexnet profile ratio @1e-2: %.2f", r)
}

func TestCorruptStreams(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	sd := modelDict(rng)
	stream, _, err := Compress(sd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     nil,
		"short":     stream[:3],
		"badmagic":  append([]byte{9, 9, 9, 9}, stream[4:]...),
		"truncated": stream[:len(stream)/2],
	}
	for name, c := range cases {
		if _, _, err := Decompress(c); err == nil {
			t.Errorf("%s stream decoded without error", name)
		}
	}
	// Bad version byte.
	bad := append([]byte(nil), stream...)
	bad[4] = 99
	if _, _, err := Decompress(bad); err == nil {
		t.Error("bad version decoded without error")
	}
}

func TestEmptyStateDict(t *testing.T) {
	sd := tensor.NewStateDict()
	stream, stats, err := Compress(sd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.RawBytes != 0 {
		t.Fatal("empty dict should have zero raw bytes")
	}
	got, _, err := Decompress(stream)
	if err != nil || got.Len() != 0 {
		t.Fatalf("len=%d err=%v", got.Len(), err)
	}
}

// TestStatsAccounting: the encoder's partition bytes add up to RawBytes, and
// a decode reports the encoder's RawBytes with CompressedBytes the stream's
// length, for plain, chunked and delta streams, observing the
// fedsz_update_ratio histogram once.
func TestStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	sd := modelDict(rng)
	ratios := stageFor(sz2.NewCompressor()).ratio
	for _, o := range []Options{{}, {ChunkElems: 4096}, {Reference: sd.Clone(), RefEpoch: 3}} {
		stream, stats, err := Compress(sd, o)
		if err != nil {
			t.Fatal(err)
		}
		if stats.LossyRaw+stats.LosslessRaw != stats.RawBytes {
			t.Errorf("partition bytes %d+%d != raw %d", stats.LossyRaw, stats.LosslessRaw, stats.RawBytes)
		}
		if stats.CompressTime <= 0 {
			t.Error("compress time not measured")
		}
		if stats.LossyRatio() <= 1 {
			t.Errorf("lossy ratio %.2f should exceed 1", stats.LossyRatio())
		}
		before := ratios.Count()
		_, dstats, err := DecompressWith(context.Background(), nil, stream, DecodeOptions{Reference: o.Reference, RefEpoch: o.RefEpoch})
		if err != nil {
			t.Fatal(err)
		}
		if dstats.RawBytes != stats.RawBytes || dstats.RawBytes != sd.SizeBytes() {
			t.Errorf("chunk %d, delta %v: decode RawBytes %d, encode %d", o.ChunkElems, o.Reference != nil, dstats.RawBytes, stats.RawBytes)
		}
		if dstats.CompressedBytes != len(stream) || stats.CompressedBytes != len(stream) {
			t.Errorf("chunk %d, delta %v: decode CompressedBytes %d, encode %d, stream %d",
				o.ChunkElems, o.Reference != nil, dstats.CompressedBytes, stats.CompressedBytes, len(stream))
		}
		if n := ratios.Count() - before; n != 1 || dstats.Ratio() != stats.Ratio() {
			t.Errorf("chunk %d, delta %v: %d ratio observations, ratio %v, encode %v",
				o.ChunkElems, o.Reference != nil, n, dstats.Ratio(), stats.Ratio())
		}
	}
}
