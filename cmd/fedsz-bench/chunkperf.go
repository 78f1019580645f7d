package main

// Chunk-scaling leg of the perf snapshot: the first multicore measurement
// in the trajectory. The fixture is deliberately skewed — one dominant
// 4M-element tensor plus a tail of small ones — because that is the shape
// where per-tensor parallelism flatlines (the big tensor serializes the
// whole encode) and intra-tensor chunking is the only lever left. The
// chunked legs run the v4 chunked layout on a GOMAXPROCS pool; the
// unchunked legs run the same fixture with chunking disabled. Encode fans
// a tensor's chunks out on the pool: on a 1-CPU container its derived
// speedup hovers near 1 (chunk framing overhead only), on a ≥4-CPU host it
// tracks the fan-out, and the committed baseline's class-matched gate in
// checkPerfBaseline holds it there. Decode runs a tensor's chunks serially
// inside that tensor's task, so its ratio stays near 1 everywhere.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/eblctest"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// chunkFixtureElems sizes the dominant tensor: 4M elements = 8 chunks at
// the default 512Ki-element chunk target.
const chunkFixtureElems = 1 << 22

// chunkFixture builds the skewed dict: one fc.weight at chunkFixtureElems
// plus eight small conv tensors and a bias tail.
func chunkFixture() (*tensor.StateDict, int) {
	rng := rand.New(rand.NewPCG(0xC0DE, 0x41C))
	sd := tensor.NewStateDict()
	sd.Add("fc.weight", tensor.KindWeight, tensor.FromData(eblctest.WeightLike(rng, chunkFixtureElems), 1024, chunkFixtureElems/1024))
	raw := 4 * chunkFixtureElems
	for i := 0; i < 8; i++ {
		sd.Add(fmt.Sprintf("conv%d.weight", i), tensor.KindWeight, tensor.FromData(eblctest.WeightLike(rng, 4096), 64, 64))
		raw += 4 * 4096
	}
	b := tensor.New(256)
	for j := range b.Data {
		b.Data[j] = float32(0.01 * rng.NormFloat64())
	}
	sd.Add("fc.bias", tensor.KindBias, b)
	raw += 4 * 256
	return sd, raw
}

// measureChunkScaling records the chunked-vs-unchunked encode/decode legs
// and their derived speedups into the snapshot via the caller's record
// closure.
func measureChunkScaling(snap *perfSnapshot, record func(name string, bytesMoved int, fn func(b *testing.B)) perfEntry) error {
	sd, rawBytes := chunkFixture()
	pool := sched.NewPool(0)
	ctx := context.Background()

	legs := []struct {
		name string
		opts core.Options
	}{
		{"chunked", core.Options{}},                 // default ChunkElems → 8 chunks on fc.weight
		{"unchunked", core.Options{ChunkElems: -1}}, // v2 layout, per-tensor parallelism only
	}
	encEntries := map[string]perfEntry{}
	decEntries := map[string]perfEntry{}
	for _, leg := range legs {
		stream, _, err := core.CompressWith(ctx, pool, sd, leg.opts)
		if err != nil {
			return err
		}
		var benchErr error
		encEntries[leg.name] = record("chunk_encode_"+leg.name, rawBytes, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, _, err := core.CompressWith(ctx, pool, sd, leg.opts)
				if err != nil {
					benchErr = err
					b.Fatal(err)
				}
				sched.PutBytes(out)
			}
		})
		if benchErr != nil {
			return benchErr
		}
		decEntries[leg.name] = record("chunk_decode_"+leg.name, rawBytes, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				got, _, err := core.DecompressWith(ctx, pool, stream, core.DecodeOptions{})
				if err != nil {
					benchErr = err
					b.Fatal(err)
				}
				core.Release(got)
			}
		})
		if benchErr != nil {
			return benchErr
		}
	}
	if s := encEntries["chunked"].NsPerOp; s > 0 {
		snap.Derived["chunk_encode_speedup"] = encEntries["unchunked"].NsPerOp / s
	}
	if s := decEntries["chunked"].NsPerOp; s > 0 {
		snap.Derived["chunk_decode_speedup"] = decEntries["unchunked"].NsPerOp / s
	}
	return nil
}
