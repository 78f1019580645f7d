package agg

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/eblctest"
	"repro/internal/lanes"
	"repro/internal/sched"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// deltaRef is the reference the delta tests and FuzzIngestDelta decode
// against, at epoch 1: three weight tensors — c.weight above the 4096-element
// chunk target the seeds encode with — and a bias in the metadata partition.
func deltaRef() *tensor.StateDict {
	rng := rand.New(rand.NewPCG(44, 2))
	sd := tensor.NewStateDict()
	sd.Add("a.weight", tensor.KindWeight, tensor.FromData(eblctest.WeightLike(rng, 4096), 64, 64))
	sd.Add("b.weight", tensor.KindWeight, tensor.FromData(eblctest.WeightLike(rng, 2048), 2048))
	sd.Add("c.weight", tensor.KindWeight, tensor.FromData(eblctest.WeightLike(rng, 9000), 9000))
	b := tensor.New(64)
	for i := range b.Data {
		b.Data[i] = float32(0.01 * rng.NormFloat64())
	}
	sd.Add("bias", tensor.KindBias, b)
	return sd
}

// deltaUpdate returns ref with each weight tensor moved: by a constant
// (shift[name], which the encoder ships as a constant residual), or, where
// noise[name] is set, by Gaussian noise of that scale (a codec residual).
func deltaUpdate(ref *tensor.StateDict, seed uint64, shift, noise map[string]float64) *tensor.StateDict {
	rng := rand.New(rand.NewPCG(seed, 3))
	upd := ref.Clone()
	for _, e := range upd.Entries() {
		for i := range e.Tensor.Data {
			e.Tensor.Data[i] += float32(shift[e.Name] + noise[e.Name]*rng.NormFloat64())
		}
	}
	return upd
}

// deltaOpts encodes against deltaRef at epoch 1 with c.weight chunked.
func deltaOpts(ref *tensor.StateDict) core.Options {
	return core.Options{LossyParams: ebcl.Abs(1e-3), Reference: ref, RefEpoch: 1, ChunkElems: 4096}
}

// TestShardedDeltaConstantFold ingests a delta round sequentially, on the
// fold kernels and on the Go loops: four updates whose weight tensors are
// constant residuals, except b.weight of the third, a codec residual. The
// mean must equal the textbook fold of the core.Decompress'ed updates bit
// for bit — the first adopted (its constant tensors written out), the
// constant ones later folded straight from the reference.
func TestShardedDeltaConstantFold(t *testing.T) {
	ref := deltaRef()
	dopts := core.DecodeOptions{Reference: ref, RefEpoch: 1}
	var streams [][]byte
	var decoded []*tensor.StateDict
	constants := 0
	for k := range 4 {
		shift := map[string]float64{"a.weight": 1e-2 * float64(k+1), "b.weight": -3e-3 * float64(k), "c.weight": 7e-3}
		var noise map[string]float64
		if k == 2 {
			noise = map[string]float64{"b.weight": 1e-2}
		}
		stream, st, err := core.Compress(deltaUpdate(ref, uint64(k), shift, noise), deltaOpts(ref))
		if err != nil {
			t.Fatal(err)
		}
		if want := 3 - len(noise); st.DeltaTensors != 3 || st.ConstantResiduals != want {
			t.Fatalf("update %d: %d residuals, %d constant; want 3 and %d", k, st.DeltaTensors, st.ConstantResiduals, want)
		}
		constants += st.ConstantResiduals
		sd, _, err := core.DecompressWith(context.Background(), nil, stream, dopts)
		if err != nil {
			t.Fatal(err)
		}
		streams, decoded = append(streams, stream), append(decoded, sd)
	}
	if constants != 11 {
		t.Fatalf("%d constant residuals, want 11", constants)
	}
	// The decode leaves each constant residual unwritten, reading ref.
	d, _, err := core.DecodeSections(context.Background(), nil, wire.NewSectionSource(context.Background(), bytes.NewReader(frame(t, streams[0]))), dopts)
	if err != nil {
		t.Fatal(err)
	}
	for _, dt := range d.Tensors {
		if dt.Data != nil || &dt.Ref[0] != &ref.Get(dt.Name).Data[0] {
			t.Fatalf("%s decoded to a buffer, not to its reference", dt.Name)
		}
	}
	d.Release()

	want := manualFold(t, decoded)
	lanes.BothPaths(func(path string) {
		sh := New(Config{Pool: sched.NewPool(2)})
		defer sh.Reset()
		for i, s := range streams {
			if _, _, err := sh.IngestStream(context.Background(), uint32(i), 1, dopts, bytes.NewReader(frame(t, s))); err != nil {
				t.Fatalf("%s: ingest %d: %v", path, i, err)
			}
		}
		mean, n := sh.Mean()
		if n != len(streams) {
			t.Fatalf("%s: folded %d, want %d", path, n, len(streams))
		}
		mustEqualBits(t, path+": delta round mean", mean, want)
		core.Release(mean)
	})

	// Concurrent clients share the reference-extent cache: eight at once,
	// every one folded (run under -race).
	sh := New(Config{Pool: sched.NewPool(2)})
	defer sh.Reset()
	framed := make([][]byte, len(streams))
	for i, s := range streams {
		framed[i] = frame(t, s)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = sh.IngestStream(context.Background(), uint32(i), 1, dopts, bytes.NewReader(framed[i%len(framed)]))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent ingest %d: %v", i, err)
		}
	}
	if n := folded(sh); n != len(errs) {
		t.Fatalf("folded %d concurrent updates, want %d", n, len(errs))
	}
}

// FuzzIngestDelta is FuzzIngestStream for delta rounds: arbitrary bytes
// arrive as a round's first update at an aggregator decoding against
// deltaRef at epoch 1. The seeds are framed streams encoded against that
// reference: constant residuals, codec residuals, chunked residuals, and a
// mixed dict whose d.weight, absent from the reference, goes absolute.
// Ingest must not panic and may fail only with the typed sentinels, and a
// failed update never folds. A folded update's mean must be its
// core.Decompress'ed dict bit for bit, and the same stream must fold again
// onto itself, to the textbook fold of the two.
func FuzzIngestDelta(f *testing.F) {
	ref := deltaRef()
	dopts := core.DecodeOptions{Reference: ref, RefEpoch: 1}
	all := map[string]float64{"a.weight": 1e-2, "b.weight": 1e-2, "c.weight": 1e-2}
	mixed := deltaUpdate(ref, 4, map[string]float64{"a.weight": 2e-3}, map[string]float64{"b.weight": 1e-2, "c.weight": 1e-2})
	rng := rand.New(rand.NewPCG(44, 4))
	mixed.Add("d.weight", tensor.KindWeight, tensor.FromData(eblctest.WeightLike(rng, 1500), 1500))
	for _, sd := range []*tensor.StateDict{
		deltaUpdate(ref, 1, map[string]float64{"a.weight": 2e-3, "b.weight": -5e-3, "c.weight": 1e-3}, nil),
		deltaUpdate(ref, 2, nil, map[string]float64{"a.weight": 1e-2, "b.weight": 1e-2}),
		deltaUpdate(ref, 3, all, all),
		mixed,
	} {
		stream, _, err := core.Compress(sd, deltaOpts(ref))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame(f, stream))
	}
	pool := sched.NewPool(2)
	f.Fuzz(func(t *testing.T, framed []byte) {
		ctx := context.Background()
		sh := New(Config{Pool: pool})
		defer sh.Reset()
		var want *tensor.StateDict
		for round := range 2 {
			_, _, err := sh.IngestStream(ctx, uint32(round), 1, dopts, bytes.NewReader(framed))
			if err != nil {
				if round == 1 {
					t.Fatalf("stream folded once, then failed onto itself: %v", err)
				}
				if !errors.Is(err, core.ErrCorrupt) && !errors.Is(err, core.ErrReference) {
					t.Fatalf("untyped ingest error: %v", err)
				}
				if n := folded(sh); n != 0 {
					t.Fatalf("failed update folded: count %d", n)
				}
				return
			}
			if round == 0 {
				stream, err := io.ReadAll(wire.NewReader(bytes.NewReader(framed)))
				if err != nil {
					t.Fatalf("folded stream does not deframe: %v", err)
				}
				if want, _, err = core.DecompressWith(ctx, nil, stream, dopts); err != nil {
					t.Fatalf("folded stream does not decompress: %v", err)
				}
				defer core.Release(want)
			}
			mean, _ := sh.Mean()
			if round == 0 {
				mustEqualBits(t, "one update's mean", mean, want)
			} else {
				mustEqualBits(t, "the mean of the update twice", mean, manualFold(t, []*tensor.StateDict{want, want}))
			}
			core.Release(mean)
		}
	})
}
