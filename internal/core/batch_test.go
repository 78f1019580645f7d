package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/sched"
	"repro/internal/tensor"
)

// wideDict builds a state dict with nTensors lossy-path weight tensors of
// elems elements each (plus metadata), so the per-tensor fan-out has real
// work on every index.
func wideDict(rng *rand.Rand, nTensors, elems int) *tensor.StateDict {
	sd := tensor.NewStateDict()
	for l := 0; l < nTensors; l++ {
		w := tensor.New(elems)
		for i := range w.Data {
			w.Data[i] = float32(0.03 * (rng.ExpFloat64() - rng.ExpFloat64()))
		}
		sd.Add(name("layer", l, "weight"), tensor.KindWeight, w)
		b := tensor.New(16)
		for i := range b.Data {
			b.Data[i] = float32(0.01 * rng.NormFloat64())
		}
		sd.Add(name("layer", l, "bias"), tensor.KindBias, b)
	}
	return sd
}

func name(prefix string, i int, suffix string) string {
	return prefix + string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + "." + suffix
}

// TestParallelDecodeMatchesSerial: the shared-pool decode must be
// bit-identical to a serial decode of the same stream.
func TestParallelDecodeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	sd := wideDict(rng, 12, 4096)
	stream, _, err := Compress(sd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	serial, _, err := DecompressWith(context.Background(), sched.NewPool(1), stream, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, err := DecompressWith(context.Background(), sched.NewPool(8), stream, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Marshal(), parallel.Marshal()) {
		t.Fatal("parallel decode differs from serial decode")
	}
}

// compressAll compresses each dict in a goroutine of its own on one pool —
// how a client process encodes many updates at once: every call's
// per-tensor fan-out draws from the pool's one budget. It returns each
// call's stream and stats, and the calls' errors joined.
func compressAll(pool *sched.Pool, sds []*tensor.StateDict, opts Options) ([][]byte, []*Stats, error) {
	streams := make([][]byte, len(sds))
	stats := make([]*Stats, len(sds))
	errs := make([]error, len(sds))
	var wg sync.WaitGroup
	for i, sd := range sds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			streams[i], stats[i], errs[i] = CompressWith(context.Background(), pool, sd, opts)
		}()
	}
	wg.Wait()
	return streams, stats, errors.Join(errs...)
}

// TestCompressAllBitIdenticalToSequential: concurrent compresses on one
// pool must each equal a standalone Compress of their input, byte for byte.
func TestCompressAllBitIdenticalToSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 24))
	sds := make([]*tensor.StateDict, 8)
	for i := range sds {
		sds[i] = wideDict(rng, 4, 2048)
	}
	pool := sched.NewPool(4)
	batch, stats, err := compressAll(pool, sds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, sd := range sds {
		single, sstats, err := Compress(sd, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(batch[i], single) {
			t.Fatalf("client %d: concurrent stream differs from sequential", i)
		}
		if stats[i].CompressedBytes != sstats.CompressedBytes {
			t.Fatalf("client %d: stats mismatch", i)
		}
	}
	if busy := pool.Busy(); busy != 0 {
		t.Fatalf("%d pool slots held after the compresses", busy)
	}
}

// decompressAll decodes each stream in a goroutine of its own on one pool —
// how a server decodes many streams at once: every call's per-tensor fan-out
// draws from the pool's one budget. It returns what each call returned.
func decompressAll(pool *sched.Pool, streams [][]byte) ([]*tensor.StateDict, []*DecompressStats, []error) {
	sds := make([]*tensor.StateDict, len(streams))
	stats := make([]*DecompressStats, len(streams))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for i, s := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sds[i], stats[i], errs[i] = DecompressWith(context.Background(), pool, s, DecodeOptions{})
		}()
	}
	wg.Wait()
	return sds, stats, errs
}

// TestDecompressAllBitIdenticalToSequential runs the acceptance scenario:
// ≥32 synthetic client streams decoded concurrently on one pool, each
// bit-identical to a lone Decompress (run under -race in CI).
func TestDecompressAllBitIdenticalToSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 26))
	const nClients = 32
	sds := make([]*tensor.StateDict, nClients)
	for i := range sds {
		sds[i] = wideDict(rng, 3, 1536)
	}
	streams, _, err := compressAll(sched.NewPool(0), sds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.NewPool(8)
	batch, bstats, errs := decompressAll(pool, streams)
	for i, s := range streams {
		if errs[i] != nil || bstats[i] == nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		single, _, err := Decompress(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(batch[i].Marshal(), single.Marshal()) {
			t.Fatalf("client %d: concurrent decode differs from per-call decode", i)
		}
	}
	if busy := pool.Busy(); busy != 0 {
		t.Fatalf("%d pool slots held after the decodes", busy)
	}
}

// TestDecompressAllPropagatesCorruption: one bad stream among concurrent
// decodes on one pool fails with ErrCorrupt without panicking the pool
// workers or disturbing its siblings, and leaves no pool slot held; with
// the siblings' dicts released, every float buffer taken is back.
func TestDecompressAllPropagatesCorruption(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 28))
	sds := make([]*tensor.StateDict, 4)
	for i := range sds {
		sds[i] = wideDict(rng, 4, 1500)
	}
	pool := sched.NewPool(2)
	streams, _, err := compressAll(pool, sds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	streams[3] = streams[3][:len(streams[3])/2]
	hits0, misses0 := sched.FloatPoolCounters()
	puts0 := sched.FloatPoolPuts()
	decoded, _, errs := decompressAll(pool, streams)
	if !errors.Is(errs[3], ErrCorrupt) {
		t.Fatalf("truncated stream: err = %v, want ErrCorrupt", errs[3])
	}
	for i, sd := range decoded[:3] {
		if errs[i] != nil {
			t.Fatalf("client %d beside the truncated one: %v", i, errs[i])
		}
		Release(sd)
	}
	hits1, misses1 := sched.FloatPoolCounters()
	if took, put := (hits1+misses1)-(hits0+misses0), sched.FloatPoolPuts()-puts0; took != put {
		t.Fatalf("the decodes took %d float buffers and returned %d", took, put)
	}
	if busy := pool.Busy(); busy != 0 {
		t.Fatalf("the decodes left %d pool slots held", busy)
	}
}

func benchStream(b *testing.B, nTensors, elems int) []byte {
	b.Helper()
	rng := rand.New(rand.NewPCG(31, 32))
	sd := wideDict(rng, nTensors, elems)
	stream, _, err := Compress(sd, Options{})
	if err != nil {
		b.Fatal(err)
	}
	return stream
}

// BenchmarkDecompressSerial decodes a 12-tensor model on one goroutine —
// the seed path.
func BenchmarkDecompressSerial(b *testing.B) {
	stream := benchStream(b, 12, 32768)
	pool := sched.NewPool(1)
	b.SetBytes(int64(12 * 32768 * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecompressWith(context.Background(), pool, stream, DecodeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecompressParallel decodes the same model on the shared pool;
// on a multicore machine this should beat BenchmarkDecompressSerial
// roughly linearly until the tensor count is exhausted.
func BenchmarkDecompressParallel(b *testing.B) {
	stream := benchStream(b, 12, 32768)
	pool := sched.NewPool(0)
	b.SetBytes(int64(12 * 32768 * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecompressWith(context.Background(), pool, stream, DecodeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecompressAll32 decodes a 32-client round concurrently under one
// budget — the aggregation-server hot path.
func BenchmarkDecompressAll32(b *testing.B) {
	rng := rand.New(rand.NewPCG(33, 34))
	const nClients = 32
	sds := make([]*tensor.StateDict, nClients)
	raw := 0
	for i := range sds {
		sds[i] = wideDict(rng, 4, 8192)
		raw += sds[i].SizeBytes()
	}
	streams, _, err := compressAll(sched.NewPool(0), sds, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(raw))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, errs := decompressAll(sched.NewPool(0), streams); errors.Join(errs...) != nil {
			b.Fatal(errors.Join(errs...))
		}
	}
}

// BenchmarkCompressAll32 is the client-side mirror of the batch bench:
// 32 concurrent compresses on one pool.
func BenchmarkCompressAll32(b *testing.B) {
	rng := rand.New(rand.NewPCG(35, 36))
	const nClients = 32
	sds := make([]*tensor.StateDict, nClients)
	raw := 0
	for i := range sds {
		sds[i] = wideDict(rng, 4, 8192)
		raw += sds[i].SizeBytes()
	}
	b.SetBytes(int64(raw))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := compressAll(sched.NewPool(0), sds, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
