package fedsz

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

// buildDemoDict assembles a state dict through the public API only.
func buildDemoDict(rng *rand.Rand) *StateDict {
	sd := NewStateDict()
	w := make([]float32, 32*16*3*3)
	for i := range w {
		w[i] = float32(0.03 * (rng.ExpFloat64() - rng.ExpFloat64()))
	}
	sd.Add("conv.weight", KindWeight, NewTensor(w, 32, 16, 3, 3))
	b := make([]float32, 32)
	for i := range b {
		b[i] = float32(0.01 * rng.NormFloat64())
	}
	sd.Add("conv.bias", KindBias, NewTensor(b, 32))
	rm := make([]float32, 32)
	sd.Add("bn.running_mean", KindRunningStat, NewTensor(rm, 32))
	return sd
}

// newCodec builds a codec from options a test knows are valid.
func newCodec(t *testing.T, options ...Option) *Codec {
	t.Helper()
	c, err := New(options...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPublicAPIRoundTrip(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(1, 2))
	sd := buildDemoDict(rng)
	codec := newCodec(t)
	stream, stats, err := codec.Compress(ctx, sd)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ratio() < 2 {
		t.Errorf("ratio %.2f", stats.Ratio())
	}
	got, _, err := codec.Decompress(ctx, stream)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != sd.Len() {
		t.Fatalf("entries %d != %d", got.Len(), sd.Len())
	}
	// Every entry keeps its Kind, so a receiver partitions as the sender did.
	kinds := map[string]Kind{"conv.weight": KindWeight, "conv.bias": KindBias, "bn.running_mean": KindRunningStat}
	for _, e := range got.Entries() {
		if e.Kind != kinds[e.Name] {
			t.Fatalf("%s: kind %v, want %v", e.Name, e.Kind, kinds[e.Name])
		}
	}
	// Bias must be exact (lossless path); weight within REL 1e-2.
	for i, v := range sd.Get("conv.bias").Data {
		if got.Get("conv.bias").Data[i] != v {
			t.Fatal("bias not exact")
		}
	}
	a := sd.Get("conv.weight").Data
	bb := got.Get("conv.weight").Data
	lo, hi := a[0], a[0]
	for _, v := range a {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	bound := 1e-2 * float64(hi-lo)
	for i := range a {
		if d := math.Abs(float64(a[i]) - float64(bb[i])); d > bound*(1+1e-6) {
			t.Fatalf("weight error %g exceeds %g", d, bound)
		}
	}
}

func TestCompressorSelection(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(3, 4))
	sd := buildDemoDict(rng)
	for _, n := range []string{"sz2", "sz3", "szx", "zfp"} {
		codec := newCodec(t, WithCompressor(n), WithRelBound(1e-2))
		if got := codec.Options().Lossy.Name(); got != n {
			t.Fatalf("WithCompressor(%q) selected %q", n, got)
		}
		stream, _, err := codec.Compress(ctx, sd)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if _, _, err := codec.Decompress(ctx, stream); err != nil {
			t.Fatalf("%s decompress: %v", n, err)
		}
	}
}

func TestLosslessSelection(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(5, 6))
	sd := buildDemoDict(rng)
	for _, n := range []string{"blosclz", "gzip", "xzlike", "zlib", "zstdlike"} {
		codec := newCodec(t, WithLossless(n))
		stream, _, err := codec.Compress(ctx, sd)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		got, _, err := codec.Decompress(ctx, stream)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		for i, v := range sd.Get("bn.running_mean").Data {
			if got.Get("bn.running_mean").Data[i] != v {
				t.Fatalf("%s: metadata corrupted", n)
			}
		}
	}
}

func TestShouldCompressAPI(t *testing.T) {
	d := ShouldCompress(time.Second, time.Second, 100<<20, 10<<20, Link{BandwidthMbps: 10})
	if !d.Compress {
		t.Fatal("10 Mbps should favour compression")
	}
	d = ShouldCompress(time.Second, time.Second, 100<<20, 10<<20, Link{BandwidthMbps: 100000})
	if d.Compress {
		t.Fatal("100 Gbps should not favour compression")
	}
}
