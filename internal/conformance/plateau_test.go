package conformance

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/eblctest"
	"repro/internal/tensor"
)

// liveHeap is the heap still allocated after two collections: the first
// frees the garbage and moves every sync.Pool's buffers to its victim cache,
// the second frees those, so what is left is what the program holds.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDeltaHeapPlateau holds the delta path to a flat live heap. The
// benchmark's delta_rounds workload reads a peak RSS that rises with the
// rounds a run completes (≈ 200 MB after 50 rounds, ≈ 320 MB after 300);
// under GODEBUG=gctrace=1 that is garbage from pool misses piling up to
// GOGC's goal of twice the live heap, not a leak. Here rounds of residual
// encode and decode run in process against a reference that moves every
// round (the decoded dict of the round before, as both ends of a session hold
// it), and the live heap at round 2N must be within 5 % of round N's.
func TestDeltaHeapPlateau(t *testing.T) {
	const (
		n       = 10 // rounds before the first reading
		clients = 2
	)
	rng := rand.New(rand.NewPCG(30, 3))
	global := tensor.NewStateDict()
	for _, name := range []string{"conv1.weight", "conv2.weight", "fc.weight"} {
		global.Add(name, tensor.KindWeight, tensor.FromData(eblctest.WeightLike(rng, 1<<16), 1<<16))
	}
	bias := tensor.New(64)
	global.Add("fc.bias", tensor.KindBias, bias)

	stream, _, err := core.Compress(global, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shared, _, err := core.Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	var atN uint64
	deltaTensors := 0
	for round := 1; round <= 2*n; round++ {
		drift(global, rng, 1e-3)
		epoch := uint32(round)
		var next *tensor.StateDict
		for c := 0; c < clients; c++ {
			update := global.Clone()
			drift(update, rng, 1e-4)
			stream, stats, err := core.Compress(update, core.Options{Reference: shared, RefEpoch: epoch})
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			deltaTensors += stats.DeltaTensors
			got, _, err := core.DecompressWith(t.Context(), nil, stream,
				core.DecodeOptions{Reference: shared, RefEpoch: epoch})
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if next == nil {
				next = got
			} else {
				core.Release(got)
			}
		}
		core.Release(shared)
		shared = next
		switch round {
		case n:
			atN = liveHeap()
		case 2 * n:
			at2N := liveHeap()
			growth := float64(at2N)/float64(atN) - 1
			t.Logf("live heap %d B after %d rounds, %d B after %d (%+.2f %%)", atN, n, at2N, 2*n, 100*growth)
			if growth > 0.05 || growth < -0.05 {
				t.Errorf("live heap moved %+.2f %% between rounds %d and %d, want within 5 %%", 100*growth, n, 2*n)
			}
		}
	}
	if deltaTensors == 0 {
		t.Fatal("no tensor took the residual path: the test ran the absolute path only")
	}
}
