package conformance

// Alias-safety and buffer-reuse suite for the zero-copy codec contract:
// every EBLC must append/reconstruct identical bytes whether dst is nil, a
// dirty recycled buffer, or carries a prefix; must fully overwrite the
// decode range so garbage in a recycled buffer cannot leak; and must not
// retain or alias the caller's input on either side. Run under -race in CI
// (the race short pass covers this package).

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"runtime/debug"
	"testing"

	"repro/internal/agg"
	"repro/internal/compressors"
	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/eblctest"
	"repro/internal/sched"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// reuseParams returns the error-control settings exercised per codec.
func reuseParams(name string) []ebcl.Params {
	if name == "zfp" {
		return []ebcl.Params{ebcl.Rel(1e-2), ebcl.Abs(1e-3), ebcl.Precision(14)}
	}
	return []ebcl.Params{ebcl.Rel(1e-2), ebcl.Abs(1e-3)}
}

// reuseInputs returns the data shapes exercised: weight-like bulk, block
// boundary edges, tiny arrays, constant, empty, and (under ABS) non-finite.
func reuseInputs(rng *rand.Rand, p ebcl.Params) map[string][]float32 {
	in := map[string][]float32{
		"weights":   eblctest.WeightLike(rng, 10000),
		"block127":  eblctest.WeightLike(rng, 127),
		"block129":  eblctest.WeightLike(rng, 129),
		"tiny":      eblctest.WeightLike(rng, 3),
		"single":    {0.25},
		"constant":  {1.5, 1.5, 1.5, 1.5, 1.5},
		"empty":     {},
		"smooth257": eblctest.SmoothLike(rng, 257),
	}
	if p.Mode == ebcl.ModeAbsolute {
		nf := eblctest.WeightLike(rng, 500)
		nf[7] = float32(math.NaN())
		nf[123] = float32(math.Inf(1))
		nf[499] = float32(math.Inf(-1))
		in["nonfinite"] = nf
	}
	return in
}

// dirtyBytes returns a pooled byte buffer of at least n capacity with its
// full capacity poisoned.
func dirtyBytes(n int) []byte {
	b := sched.GetBytes(n)
	b = b[:cap(b)]
	for i := range b {
		b[i] = 0xA5
	}
	return b[:0]
}

// dirtyFloats returns a pooled float buffer of at least n capacity
// poisoned with NaNs — the worst garbage a recycled reconstruction buffer
// could carry.
func dirtyFloats(n int) []float32 {
	f := sched.GetFloats(n)
	f = f[:cap(f)]
	for i := range f {
		f[i] = float32(math.NaN())
	}
	return f[:0]
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func testCodecReuse(t *testing.T, c ebcl.Compressor, p ebcl.Params, data []float32) {
	t.Helper()

	ref, err := c.CompressAppend(nil, data, p)
	if err != nil {
		t.Fatalf("CompressAppend(nil): %v", err)
	}

	// A dirty recycled dst must yield the same bytes.
	dirty := dirtyBytes(len(ref) + 32)
	fromDirty, err := c.CompressAppend(dirty, data, p)
	if err != nil {
		t.Fatalf("CompressAppend(dirty): %v", err)
	}
	if !bytes.Equal(fromDirty, ref) {
		t.Fatal("CompressAppend over a dirty recycled buffer produced different bytes")
	}
	sched.PutBytes(fromDirty)

	// Append semantics: an existing prefix survives, the stream follows it.
	prefix := []byte("prefix!")
	withPrefix, err := c.CompressAppend(append([]byte(nil), prefix...), data, p)
	if err != nil {
		t.Fatalf("CompressAppend(prefix): %v", err)
	}
	if !bytes.Equal(withPrefix[:len(prefix)], prefix) || !bytes.Equal(withPrefix[len(prefix):], ref) {
		t.Fatal("CompressAppend did not append after the existing prefix")
	}

	// The stream must not alias the input: mutating data afterwards must
	// not change the emitted bytes.
	streamCopy := append([]byte(nil), ref...)
	saved := append([]float32(nil), data...)
	for i := range data {
		data[i] = -999
	}
	if !bytes.Equal(ref, streamCopy) {
		t.Fatal("compressed stream aliases the input data")
	}
	copy(data, saved)

	refOut, _, err := c.DecompressFinite(nil, ref)
	if err != nil || len(refOut) != len(data) {
		t.Fatalf("decompress: %d of %d elements, %v", len(refOut), len(data), err)
	}

	// DecompressFinite over a dirty NaN-poisoned recycled buffer must be
	// bit-identical to the fresh decode (i.e. every element overwritten).
	dirtyF := dirtyFloats(len(refOut) + 8)
	intoDirty, _, err := c.DecompressFinite(dirtyF, ref)
	if err != nil {
		t.Fatalf("DecompressFinite(dirty): %v", err)
	}
	if !bitsEqual(intoDirty, refOut) {
		t.Fatal("DecompressFinite over a dirty recycled buffer produced different values")
	}

	// Reusing the same buffer for a second decode must stay identical.
	again, _, err := c.DecompressFinite(intoDirty[:0], ref)
	if err != nil {
		t.Fatalf("DecompressFinite(reuse): %v", err)
	}
	if !bitsEqual(again, refOut) {
		t.Fatal("second DecompressFinite into the same buffer diverged")
	}
	sched.PutFloats(again)

	// An undersized dst must force a correct reallocation.
	if len(refOut) > 1 {
		small := make([]float32, 0, 1)
		grown, _, err := c.DecompressFinite(small, ref)
		if err != nil {
			t.Fatalf("DecompressFinite(undersized): %v", err)
		}
		if !bitsEqual(grown, refOut) {
			t.Fatal("DecompressFinite with undersized dst diverged")
		}
	}

	// The decode must not retain the stream: mutating the stream after the
	// decode returned must not perturb the output.
	outCopy := append([]float32(nil), refOut...)
	for i := range ref {
		ref[i] ^= 0xFF
	}
	if !bitsEqual(refOut, outCopy) {
		t.Fatal("decoded output aliases the compressed stream")
	}
}

func TestZeroCopyReuseAndAliasSafety(t *testing.T) {
	for _, name := range compressors.Names() {
		t.Run(name, func(t *testing.T) {
			c, err := compressors.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range reuseParams(name) {
				rng := rand.New(rand.NewPCG(31, 7))
				for shape, data := range reuseInputs(rng, p) {
					t.Run(p.Mode.String()+"/"+shape, func(t *testing.T) {
						testCodecReuse(t, c, p, data)
					})
				}
			}
		})
	}
}

// TestSteadyStateAllocs pins what the zero-copy contract exists for: the
// steady-state loop of a streaming server — CompressAppend into a recycled
// buffer, DecompressFinite a pooled buffer of the tensor's size — allocates next
// to nothing per tensor once the sched pools are warm, because every scratch
// buffer inside the codec comes from and returns to a pool. A codec that
// drops one sched.Put*, or a caller that goes back to a nil dst, shows up
// here as whole extra allocations per op. The limits are
// the alloc gate of the retired fedsz-bench perf snapshot: ⌊1.1·b⌋+1 over
// its last baseline of 1/1 (sz2) and 1/0 (sz3) allocs per compress/decompress.
// Two rows hold the server's side of the loop: a warm frame read allocates
// nothing, and a warm ingest of a 12-layer update stays within 10 % of the
// 47 allocations it takes.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts at random; pooled scratch misses and allocates")
	}
	// No collection may start inside the measurement: each one empties every
	// sync.Pool, and the earlier tests' garbage decides when the next is due.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := ebcl.Rel(1e-2)
	weights := eblctest.WeightLike(rand.New(rand.NewPCG(7, 9)), 1<<18)
	for _, tc := range []struct {
		name                       string
		maxCompress, maxDecompress float64
	}{
		{"sz2", 2, 2},
		{"sz3", 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := compressors.Get(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			enc := sched.GetBytes(len(weights))
			got := testing.AllocsPerRun(10, func() {
				if enc, err = c.CompressAppend(enc[:0], weights, p); err != nil {
					t.Fatal(err)
				}
			})
			if got > tc.maxCompress {
				t.Errorf("CompressAppend into a recycled buffer: %.0f allocs/op, want <= %.0f", got, tc.maxCompress)
			}

			out := sched.GetFloats(len(weights))
			got = testing.AllocsPerRun(10, func() {
				if out, _, err = c.DecompressFinite(out[:0], enc); err != nil {
					t.Fatal(err)
				}
			})
			if got > tc.maxDecompress {
				t.Errorf("DecompressFinite a pooled buffer: %.0f allocs/op, want <= %.0f", got, tc.maxDecompress)
			}
			sched.PutFloats(out)
			sched.PutBytes(enc)
		})
	}

	t.Run("wire FrameScanner.Next", func(t *testing.T) {
		// Each run reads one frame's payload through a wire.Reader, which is
		// one FrameScanner.Next on a warm byte pool.
		payload := make([]byte, 4096)
		var framed bytes.Buffer
		w := wire.NewWriter(&framed)
		for i := 0; i < 40; i++ {
			kind := byte(wire.FrameTensor)
			if i == 0 {
				kind = wire.FrameHeader
			}
			if err := w.WriteFrame(kind, payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r := wire.NewReader(bytes.NewReader(framed.Bytes()))
		defer r.Close()
		got := testing.AllocsPerRun(30, func() {
			if _, err := io.ReadFull(r, payload); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("warm frame read: %.0f allocs/op, want 0", got)
		}
	})

	t.Run("agg ingest", func(t *testing.T) {
		// The ingest_small shape: 12 layers, each one lossy 2 500-element
		// weight and four metadata entries, folded (not adopted) by the
		// aggregator. It takes 11 allocations, a fixed number per update
		// for the header, the decoded stream and the frames' source. A
		// lossy tensor takes none: it shares its name and shape with the
		// adopted structure, and a tensor this small decodes inline, with
		// no task. The metadata partition takes none either: it stays
		// pooled bytes, folded in place. The limit, ⌊1.1·11⌋+1, leaves
		// 10 % slack.
		const maxIngest = 13
		framed := ingestSmallUpdate(t)
		sh := agg.New(agg.Config{Pool: sched.NewPool(1)})
		ctx := context.Background()
		client := uint32(0)
		ingest := func() {
			client++
			if _, _, err := sh.IngestStream(ctx, client, 1, core.DecodeOptions{}, bytes.NewReader(framed)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			ingest()
		}
		got := testing.AllocsPerRun(20, ingest)
		t.Logf("warm IngestStream of a 12-layer update: %.0f allocs/op", got)
		if got > maxIngest {
			t.Errorf("warm IngestStream of a 12-layer update: %.0f allocs/op, want <= %d", got, maxIngest)
		}
		mean, _ := sh.Mean()
		core.Release(mean)
		sh.Reset()
	})
}

// ingestSmallUpdate returns a wire-framed update of the ingest_small
// benchmark workload's shape.
func ingestSmallUpdate(t *testing.T) []byte {
	t.Helper()
	rng := rand.New(rand.NewPCG(12, 2500))
	sd := tensor.NewStateDict()
	for i := 0; i < 12; i++ {
		p := fmt.Sprintf("layer%02d.", i)
		sd.Add(p+"weight", tensor.KindWeight, tensor.FromData(eblctest.WeightLike(rng, 2500), 50, 50))
		sd.Add(p+"bias", tensor.KindBias, tensor.FromData(eblctest.WeightLike(rng, 50), 50))
		sd.Add(p+"bn.running_mean", tensor.KindRunningStat, tensor.FromData(eblctest.WeightLike(rng, 50), 50))
		sd.Add(p+"bn.running_var", tensor.KindRunningStat, tensor.FromData(eblctest.WeightLike(rng, 50), 50))
		sd.Add(p+"bn.num_batches_tracked", tensor.KindScalarMeta, tensor.FromData([]float32{100}, 1))
	}
	stream, _, err := core.Compress(sd, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var framed bytes.Buffer
	if err := wire.NewWriter(&framed).WriteStream(stream); err != nil {
		t.Fatal(err)
	}
	return framed.Bytes()
}
