package wire

import (
	"bytes"
	"context"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/eblctest"
	"repro/internal/promtext"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// TestEncodeBytesByPart: the bytes fedsz_encode_bytes_total counts for sz2,
// part by part, add up to the wire stream EncodeStream wrote, once
// lossless_saved is subtracted. The dict has a tensor that chunks, one that
// is constant, one whose code blob the lossless stage shrinks (REL 1e-1),
// and a metadata partition; the delta case encodes small tensors both ways
// against a reference, where only the kept candidate may count.
func TestEncodeBytesByPart(t *testing.T) {
	reg := telemetry.NewRegistry()
	core.RegisterMetrics(reg)
	parts := func() map[string]float64 {
		t.Helper()
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		samples, err := promtext.ParseText(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, name := range ebcl.PartNames {
			if s, ok := promtext.FindSample(samples, "fedsz_encode_bytes_total", "part", name, "codec", "sz2"); ok {
				out[name] = s.Value
			}
		}
		return out
	}
	rng := rand.New(rand.NewPCG(55, 1))
	dict := func() *tensor.StateDict {
		sd := tensor.NewStateDict()
		sd.Add("fc.weight", tensor.KindWeight, tensor.FromData(eblctest.WeightLike(rng, 20000), 20000))
		sd.Add("conv.weight", tensor.KindWeight, tensor.FromData(eblctest.SmoothLike(rng, 3000), 3000))
		flat := tensor.New(2048)
		for i := range flat.Data {
			flat.Data[i] = 0.25
		}
		sd.Add("flat.weight", tensor.KindWeight, flat)
		sd.Add("fc.bias", tensor.KindBias, tensor.FromData(eblctest.WeightLike(rng, 64), 64))
		return sd
	}
	ref := dict()
	update := dict()
	for _, e := range update.Entries() {
		for i := range e.Tensor.Data {
			e.Tensor.Data[i] = ref.Get(e.Name).Data[i] + float32(0.01*rng.NormFloat64())
		}
	}
	for _, c := range []struct {
		name string
		sd   *tensor.StateDict
		opts core.Options
	}{
		{"chunked", dict(), core.Options{ChunkElems: 8192}},
		{"lossless-stage", dict(), core.Options{LossyParams: ebcl.Rel(1e-1)}},
		{"delta", update, core.Options{Reference: ref, RefEpoch: 3}},
	} {
		before := parts()
		var stream bytes.Buffer
		if _, err := EncodeStream(context.Background(), sched.Default(), NewWriter(&stream), c.sd, c.opts); err != nil {
			t.Fatal(err)
		}
		after := parts()
		sum := 0.0
		for _, name := range ebcl.PartNames {
			d := after[name] - before[name]
			if name == "lossless_saved" {
				d = -d
			}
			sum += d
		}
		if sum != float64(stream.Len()) {
			t.Errorf("%s: the parts add up to %v bytes, the stream is %d (before %v, after %v)", c.name, sum, stream.Len(), before, after)
		}
		for _, name := range []string{"header", "huffman_table", "jump", "codes", "frames", "partition"} {
			if after[name] == before[name] {
				t.Errorf("%s: no %s bytes counted", c.name, name)
			}
		}
		if c.name == "lossless-stage" && after["lossless_saved"] == before["lossless_saved"] {
			t.Errorf("%s: the lossless stage saved nothing", c.name)
		}
	}
}
