package fedsz

// Concurrent-codec race test for the zero-copy contract: one fedsz.Codec
// value compressing and decompressing on N goroutines with shared buffer
// pools. Run under -race in CI. Asserts that the codec's worker pool is
// quiescent afterwards (Pool.Busy() == 0) and that no decode buffer is
// aliased across goroutines — pooled reconstruction buffers must never be
// handed to two live decodes.

import (
	"context"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/core"
)

func TestCodecConcurrentSharedPools(t *testing.T) {
	codec, err := New(WithParallelism(4), WithThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const iters = 5

	// Distinct, recognizable payloads per goroutine: tensor g is filled
	// with values centered on g+1 so cross-goroutine mixups are visible in
	// the data, not just in shapes.
	dicts := make([]*StateDict, goroutines)
	for g := range dicts {
		rng := rand.New(rand.NewPCG(uint64(g), 99))
		data := make([]float32, 2048+g*17)
		for i := range data {
			data[i] = float32(g+1) + float32(rng.NormFloat64())*0.01
		}
		sd := NewStateDict()
		sd.Add("w", KindWeight, NewTensor(data, len(data)))
		sd.Add("meta", KindScalarMeta, NewTensor([]float32{float32(g)}, 1))
		dicts[g] = sd
	}

	decoded := make([]*StateDict, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for it := 0; it < iters; it++ {
				stream, _, err := codec.Compress(ctx, dicts[g])
				if err != nil {
					errs[g] = err
					return
				}
				sd, _, err := codec.Decompress(ctx, stream)
				if err != nil {
					errs[g] = err
					return
				}
				if it < iters-1 {
					// Fold-and-discard iterations recycle their buffers —
					// the steady-state server loop under contention.
					core.Release(sd)
				} else {
					decoded[g] = sd
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}

	// The shared budget must be fully returned.
	if busy := codec.pool.Busy(); busy != 0 {
		t.Fatalf("codec pool still holds %d helper tokens after completion", busy)
	}

	// Every goroutine's final decode must match its own input within the
	// bound — values near g+1 prove no cross-goroutine buffer mixup.
	check := func() {
		for g, sd := range decoded {
			w := sd.Get("w")
			want := dicts[g].Get("w")
			if w == nil || len(w.Data) != len(want.Data) {
				t.Fatalf("goroutine %d: bad decoded tensor", g)
			}
			for i := range w.Data {
				if math.Abs(float64(w.Data[i])-float64(want.Data[i])) > 0.05 {
					t.Fatalf("goroutine %d: element %d = %v, want ~%v (cross-goroutine aliasing?)",
						g, i, w.Data[i], want.Data[i])
				}
			}
		}
	}
	check()

	// Aliasing probe: scribbling over goroutine 0's decode buffers must
	// not perturb any other goroutine's result.
	for _, e := range decoded[0].Entries() {
		for i := range e.Tensor.Data {
			e.Tensor.Data[i] = -1e9
		}
	}
	for g := 1; g < goroutines; g++ {
		w := decoded[g].Get("w")
		for i, v := range w.Data {
			if v == -1e9 {
				t.Fatalf("goroutine %d element %d shares storage with goroutine 0's decode", g, i)
			}
		}
	}
}
