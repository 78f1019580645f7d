package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"repro/internal/compressors"
	"repro/internal/ebcl"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// skewedDict models the shape that motivates chunking: one dominant tensor
// (the usual final FC layer) plus a tail of small ones, so per-tensor
// parallelism alone serializes on the big blob.
func skewedDict(rng *rand.Rand, bigElems int) *tensor.StateDict {
	sd := tensor.NewStateDict()
	big := tensor.New(bigElems)
	for i := range big.Data {
		big.Data[i] = float32(0.05 * (rng.ExpFloat64() - rng.ExpFloat64()))
	}
	sd.Add("fc.weight", tensor.KindWeight, big)
	mid := tensor.New(40, 40)
	for i := range mid.Data {
		mid.Data[i] = float32(0.02 * rng.NormFloat64())
	}
	sd.Add("conv.weight", tensor.KindWeight, mid)
	bias := tensor.New(32)
	for i := range bias.Data {
		bias.Data[i] = float32(rng.NormFloat64())
	}
	sd.Add("fc.bias", tensor.KindBias, bias)
	return sd
}

func TestChunkCountAndBounds(t *testing.T) {
	const blk = ebcl.PredictorBlockElems
	cases := []struct {
		elems, target, want int
	}{
		{1000, 0, 1},            // target 0: caller resolved "disabled"
		{1000, 2048, 1},         // below target
		{4096, 2048, 2},         // exact split
		{4097, 2048, 3},         // ceil
		{100 * blk, 1, 16},      // clamped to MaxChunks
		{3 * blk, 1, 3},         // clamped to block count
		{blk + 1, 1, 2},         // two blocks, second partial
		{1 << 22, 512 << 10, 8}, // the 4M-element FC layer
	}
	for _, c := range cases {
		if got := chunkCount(c.elems, c.target); got != c.want {
			t.Errorf("chunkCount(%d, %d) = %d, want %d", c.elems, c.target, got, c.want)
		}
	}

	// Bounds must partition [0, elems) exactly, with every boundary except
	// the last on the block grid.
	for _, elems := range []int{2 * blk, 3*blk + 17, 16 * blk, 100*blk + 1, 1 << 20} {
		for chunks := 2; chunks <= MaxChunks; chunks++ {
			if chunks > (elems+blk-1)/blk {
				continue
			}
			prev := 0
			for i := 0; i < chunks; i++ {
				lo, hi := chunkBounds(elems, chunks, i)
				if lo != prev {
					t.Fatalf("elems=%d chunks=%d: chunk %d starts at %d, want %d", elems, chunks, i, lo, prev)
				}
				if hi <= lo {
					t.Fatalf("elems=%d chunks=%d: chunk %d empty [%d,%d)", elems, chunks, i, lo, hi)
				}
				if i < chunks-1 && hi%blk != 0 {
					t.Fatalf("elems=%d chunks=%d: interior boundary %d off the block grid", elems, chunks, hi)
				}
				prev = hi
			}
			if prev != elems {
				t.Fatalf("elems=%d chunks=%d: chunks cover %d elements", elems, chunks, prev)
			}
		}
	}
}

func TestChunkedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 20))
	sd := skewedDict(rng, 18432)
	for _, name := range []string{"sz2", "sz3"} {
		for _, par := range []int{1, 4} {
			opts := Options{ChunkElems: 2048}
			lossy, err := compressors.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			opts.Lossy = lossy
			pool := sched.NewPool(par)
			stream, stats, err := CompressWith(context.Background(), pool, sd, opts)
			if err != nil {
				t.Fatalf("%s/p%d: %v", name, par, err)
			}
			if stream[4] != streamVersionV4 {
				t.Fatalf("%s/p%d: version %d, want %d", name, par, stream[4], streamVersionV4)
			}
			// 18432 elems / 2048 target = 9 chunks for fc.weight; conv.weight
			// (1600 elems) stays unchunked.
			if stats.ChunkedTensors != 1 {
				t.Fatalf("%s/p%d: ChunkedTensors = %d, want 1", name, par, stats.ChunkedTensors)
			}
			got, dstats, err := DecompressWith(context.Background(), pool, stream, DecodeOptions{})
			if err != nil {
				t.Fatalf("%s/p%d decode: %v", name, par, err)
			}
			if dstats.ChunkedTensors != 1 {
				t.Fatalf("%s/p%d: decode ChunkedTensors = %d, want 1", name, par, dstats.ChunkedTensors)
			}
			for _, tn := range []string{"fc.weight", "conv.weight"} {
				a, b := sd.Get(tn), got.Get(tn)
				ebAbs := 1e-2 * ebcl.ValueRange(a.Data)
				if e := ebcl.MaxAbsError(a.Data, b.Data); e > ebAbs*(1+1e-6) {
					t.Fatalf("%s/p%d: %s error %g exceeds bound %g", name, par, tn, e, ebAbs)
				}
			}
		}
	}
}

// TestChunkedEncodeDeterminism pins the v4 byte-reproducibility contract:
// the emitted stream must not depend on pool parallelism.
func TestChunkedEncodeDeterminism(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 21))
	sd := skewedDict(rng, 18432)
	opts := Options{ChunkElems: 2048}
	serial, _, err := CompressWith(context.Background(), nil, sd, opts)
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, err := CompressWith(context.Background(), sched.NewPool(8), sd, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatal("chunked stream bytes differ between serial and parallel encode")
	}
}

// TestChunkedSingleChunkByteIdentity: when no tensor crosses the chunk
// threshold the encoder must fall back to the v2 (or v3, with a
// reference) layout byte for byte — enabling chunking is free for small
// models, and old decoders keep working.
func TestChunkedSingleChunkByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 22))
	sd := skewedDict(rng, 18432)

	base, _, err := Compress(sd, Options{ChunkElems: -1})
	if err != nil {
		t.Fatal(err)
	}
	aboveThreshold, _, err := Compress(sd, Options{ChunkElems: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(base, aboveThreshold) {
		t.Fatal("stream with chunking enabled but below threshold differs from chunking-disabled stream")
	}
	if base[4] != streamVersion {
		t.Fatalf("unchunked stream version %d, want %d", base[4], streamVersion)
	}

	// Same identity under a delta reference (v3).
	ref := driftClone(rng, sd, 0.001)
	dBase, _, err := Compress(sd, Options{ChunkElems: -1, Reference: ref, RefEpoch: 3})
	if err != nil {
		t.Fatal(err)
	}
	dAbove, _, err := Compress(sd, Options{ChunkElems: 1 << 20, Reference: ref, RefEpoch: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dBase, dAbove) {
		t.Fatal("delta stream with chunking below threshold differs from chunking-disabled delta stream")
	}
	if dBase[4] != streamVersionV3 {
		t.Fatalf("unchunked delta stream version %d, want %d", dBase[4], streamVersionV3)
	}
}

// driftClone returns a deep copy of sd perturbed by Gaussian noise of
// deviation sigma — a plausible previous-round reference.
func driftClone(rng *rand.Rand, sd *tensor.StateDict, sigma float64) *tensor.StateDict {
	ref := tensor.NewStateDict()
	for _, e := range sd.Entries() {
		c := tensor.New(e.Tensor.Shape...)
		for i, v := range e.Tensor.Data {
			c.Data[i] = v + float32(sigma*rng.NormFloat64())
		}
		ref.Add(e.Name, e.Kind, c)
	}
	return ref
}

// viewSource feeds DecodeSections the already-split views of Sections, one
// per Next — the shape a frame-per-section transport delivers.
type viewSource struct {
	secs [][]byte
}

func (v *viewSource) Next(SectionKind) ([]byte, error) {
	sec := v.secs[0]
	v.secs = v.secs[1:]
	return sec, nil
}
func (*viewSource) Release([]byte)          {}
func (*viewSource) ReadWait() time.Duration { return 0 }

// TestChunkedSectionRouting drives the decode the way the aggregation tier
// does — one delimited section at a time — on a chunked stream: every
// tensor must come out exactly as the whole-stream decoder produces it,
// and be counted as chunked.
func TestChunkedSectionRouting(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 24))
	sd := skewedDict(rng, 18432)
	stream, _, err := Compress(sd, Options{ChunkElems: 2048})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}

	secs, err := Sections(stream)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := ParseHeader(secs.Header)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Version != streamVersionV4 || !hdr.Chunked() {
		t.Fatalf("parsed version %d (chunked=%v), want v4", hdr.Version, hdr.Chunked())
	}
	src := &viewSource{secs: append(append([][]byte{secs.Header}, secs.Tensors...), secs.Lossless)}
	got, stats, err := DecodeSections(context.Background(), sched.NewPool(2), src, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Release()
	if stats.ChunkedTensors == 0 {
		t.Fatal("no tensor counted as chunked")
	}
	for _, dt := range got.Tensors {
		ref := want.Get(dt.Name)
		if len(dt.Data) != len(ref.Data) {
			t.Fatalf("%s: %d elements, want %d", dt.Name, len(dt.Data), len(ref.Data))
		}
		for i := range dt.Data {
			if math.Float32bits(dt.Data[i]) != math.Float32bits(ref.Data[i]) {
				t.Fatalf("%s: section decode diverges from stream decode at %d", dt.Name, i)
			}
		}
	}
}

// TestChunkedConcurrentDecode decodes one chunked stream from many
// goroutines at once — the aggregation-server ingest shape — under the
// race detector.
func TestChunkedConcurrentDecode(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 25))
	sd := skewedDict(rng, 18432)
	stream, _, err := Compress(sd, Options{ChunkElems: 2048})
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.NewPool(4)
	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := DecompressWith(context.Background(), pool, stream, DecodeOptions{})
			if err != nil {
				errs[c] = err
				return
			}
			a := sd.Get("fc.weight")
			b := got.Get("fc.weight")
			ebAbs := 1e-2 * ebcl.ValueRange(a.Data)
			if e := ebcl.MaxAbsError(a.Data, b.Data); e > ebAbs*(1+1e-6) {
				errs[c] = errors.New("bound exceeded under concurrent decode")
			}
			Release(got)
		}()
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
}

// TestChunkedNonFiniteFallsBack: a REL bound cannot be resolved over
// non-finite data, so such a tensor must fall back to the unchunked path
// with behavior identical to chunking disabled.
func TestChunkedNonFiniteFallsBack(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 26))
	sd := skewedDict(rng, 18432)
	sd.Get("fc.weight").Data[100] = float32(math.NaN())

	chunkedStream, chunkedErr := func() ([]byte, error) {
		s, _, err := Compress(sd, Options{ChunkElems: 2048})
		return s, err
	}()
	plainStream, plainErr := func() ([]byte, error) {
		s, _, err := Compress(sd, Options{ChunkElems: -1})
		return s, err
	}()
	if (chunkedErr == nil) != (plainErr == nil) {
		t.Fatalf("chunked err=%v, plain err=%v: behavior diverged", chunkedErr, plainErr)
	}
	if chunkedErr != nil {
		return
	}
	got, _, err := Decompress(chunkedStream)
	if err != nil {
		t.Fatal(err)
	}
	if v := got.Get("fc.weight").Data[100]; !math.IsNaN(float64(v)) {
		t.Fatalf("NaN not preserved, got %g", v)
	}
	want, _, err := Decompress(plainStream)
	if err != nil {
		t.Fatal(err)
	}
	a, b := want.Get("fc.weight"), got.Get("fc.weight")
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			t.Fatalf("fallback reconstruction diverges from plain path at %d", i)
		}
	}
	// An ABS bound needs no range resolution, so the tensor chunks even
	// with non-finite values, which escape losslessly per chunk.
	absStream, _, err := Compress(sd, Options{ChunkElems: 2048, LossyParams: ebcl.Abs(1e-3)})
	if err != nil {
		t.Fatal(err)
	}
	if absStream[4] != streamVersionV4 {
		t.Fatalf("ABS non-finite stream version %d, want v4", absStream[4])
	}
	gotAbs, _, err := Decompress(absStream)
	if err != nil {
		t.Fatal(err)
	}
	if v := gotAbs.Get("fc.weight").Data[100]; !math.IsNaN(float64(v)) {
		t.Fatalf("NaN not preserved through chunked ABS path, got %g", v)
	}
}
