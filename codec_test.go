package fedsz

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// TestNewValidatesConfiguration: every misconfiguration must fail at
// construction with a descriptive error — never mid-pipeline. The unknown
// compressor / lossless messages are regression-locked: callers match on
// them to print available options.
func TestNewValidatesConfiguration(t *testing.T) {
	if _, err := New(WithCompressor("lz4")); err == nil ||
		err.Error() != `fedsz: unknown compressor "lz4" (available: sz2, sz3, szx, zfp)` {
		t.Fatalf("unknown compressor error = %v", err)
	}
	if _, err := New(WithLossless("snappy")); err == nil ||
		err.Error() != `fedsz: unknown lossless codec "snappy" (available: blosclz, gzip, xzlike, zlib, zstdlike)` {
		t.Fatalf("unknown lossless error = %v", err)
	}
	if _, err := New(WithRelBound(0)); err == nil {
		t.Fatal("zero relative bound accepted")
	}
	if _, err := New(WithAbsBound(-1)); err == nil {
		t.Fatal("negative absolute bound accepted")
	}
	if _, err := New(WithParams(Params{})); err == nil {
		t.Fatal("zero-value params accepted")
	}
	if _, err := New(WithParallelism(-1)); err == nil {
		t.Fatal("negative parallelism accepted")
	}

	c, err := New(
		WithCompressor("sz3"),
		WithRelBound(1e-3),
		WithLossless("zstdlike"),
		WithParallelism(3),
		WithThreshold(512),
	)
	if err != nil {
		t.Fatal(err)
	}
	o := c.Options()
	if o.Lossy.Name() != "sz3" || o.Lossless.Name() != "zstdlike" || o.Threshold != 512 {
		t.Fatalf("options not applied: %+v", o)
	}
	if p := c.pool.Parallelism(); p != 3 {
		t.Fatalf("parallelism %d, want 3", p)
	}
}

// streamVia sends sd through the one streaming path, wire-framed: the
// codec's encoder into wire frames (wire.EncodeStream), the frames back
// through wire.SectionSource into the section decoder, both on the codec's
// pool. It returns the frames and the decoded dict.
func streamVia(t *testing.T, c *Codec, sd *StateDict) ([]byte, *StateDict) {
	t.Helper()
	ctx := context.Background()
	var framed bytes.Buffer
	if _, err := wire.EncodeStream(ctx, c.pool, wire.NewWriter(&framed), sd, c.opts); err != nil {
		t.Fatal(err)
	}
	d, _, err := core.DecodeSections(ctx, c.pool, wire.NewSectionSource(ctx, bytes.NewReader(framed.Bytes())), core.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return framed.Bytes(), d.StateDict()
}

// TestCodecStreamingMatchesOneShot locks the one-shot pair to the streaming
// path: an explicit SZ2 / REL 1e-2 codec reproduces the default codec's
// bytes, the wire frames of the codec's streaming encode carry exactly what
// Compress returns, and Decompress and the streaming decode reconstruct
// identically. TestDecompressFromMatchesDecompress holds the same for the
// default codec.
func TestCodecStreamingMatchesOneShot(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(21, 22))
	sd := buildDemoDict(rng)

	codec := newCodec(t, WithCompressor("sz2"), WithRelBound(1e-2), WithParallelism(2))
	plain := newCodec(t)
	want, _, err := plain.Compress(ctx, sd)
	if err != nil {
		t.Fatal(err)
	}
	stream, _, err := codec.Compress(ctx, sd)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream, want) {
		t.Fatal("explicit SZ2 / REL 1e-2 codec differs from the default codec")
	}
	got, _, err := codec.Decompress(ctx, stream)
	if err != nil {
		t.Fatal(err)
	}
	assertStreamingMatches(t, codec, sd, stream, got)
}

// TestDecompressFromMatchesDecompress: on a default New() codec, the
// streaming path (wire.EncodeStream, then wire.SectionSource into
// DecodeSections) carries Compress's bytes and decodes what Decompress does.
func TestDecompressFromMatchesDecompress(t *testing.T) {
	ctx := context.Background()
	sd := buildDemoDict(rand.New(rand.NewPCG(23, 24)))
	codec := newCodec(t)
	stream, _, err := codec.Compress(ctx, sd)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := codec.Decompress(ctx, stream)
	if err != nil {
		t.Fatal(err)
	}
	assertStreamingMatches(t, codec, sd, stream, got)
}

// assertStreamingMatches checks that c's wire frames for sd reassemble to
// stream and that decoding them reproduces want exactly.
func assertStreamingMatches(t *testing.T, c *Codec, sd *StateDict, stream []byte, want *StateDict) {
	t.Helper()
	framed, gotFrom := streamVia(t, c, sd)
	payload, err := io.ReadAll(wire.NewReader(bytes.NewReader(framed)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, stream) {
		t.Fatal("streaming encode carries other bytes than Codec.Compress")
	}
	if d, err := gotFrom.MaxAbsDiff(want); err != nil || d != 0 {
		t.Fatalf("codec streaming decode differs: d=%v err=%v", d, err)
	}
}

// TestCodecBatchMatrix: a batch is concurrent calls on one codec. They share
// its budget, and every call reproduces its single-call output bit for bit.
func TestCodecBatchMatrix(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(31, 32))
	sds := []*StateDict{buildDemoDict(rng), buildDemoDict(rng), buildDemoDict(rng)}
	codec, err := New(WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	streams := make([][]byte, len(sds))
	decoded := make([]*StateDict, len(sds))
	errs := make([]error, 2*len(sds))
	var wg sync.WaitGroup
	for i, sd := range sds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if streams[i], _, errs[i] = codec.Compress(ctx, sd); errs[i] == nil {
				decoded[i], _, errs[len(sds)+i] = codec.Decompress(ctx, streams[i])
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for i, sd := range sds {
		single, _, err := codec.Compress(ctx, sd)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(streams[i], single) {
			t.Fatalf("concurrent stream %d differs from single compress", i)
		}
		want, _, err := codec.Decompress(ctx, single)
		if err != nil {
			t.Fatal(err)
		}
		if d, err := decoded[i].MaxAbsDiff(want); err != nil || d != 0 {
			t.Fatalf("concurrent decode %d differs: d=%v err=%v", i, d, err)
		}
	}
	if busy := codec.pool.Busy(); busy != 0 {
		t.Fatalf("%d pool slots held after the batch", busy)
	}
}

// TestCodecContextCancelled: a pre-cancelled context fails every codec
// entry point, and the streaming path on the codec's pool, with the context
// error.
func TestCodecContextCancelled(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	sd := buildDemoDict(rng)
	codec, err := New(WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	stream, _, err := codec.Compress(context.Background(), sd)
	if err != nil {
		t.Fatal(err)
	}
	framed, _ := streamVia(t, codec, sd)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := codec.Compress(ctx, sd); !errors.Is(err, context.Canceled) {
		t.Fatalf("Compress: %v", err)
	}
	if _, err := wire.EncodeStream(ctx, codec.pool, wire.NewWriter(io.Discard), sd, codec.opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("wire.EncodeStream: %v", err)
	}
	if _, _, err := codec.Decompress(ctx, stream); !errors.Is(err, context.Canceled) {
		t.Fatalf("Decompress: %v", err)
	}
	if _, _, err := core.DecodeSections(ctx, codec.pool, wire.NewSectionSource(ctx, bytes.NewReader(framed)), core.DecodeOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("wire.SectionSource: %v", err)
	}
}

// TestDefaultCodecSharedPool: a codec built without WithParallelism rides
// the process-wide budget; WithParallelism gives it its own.
func TestDefaultCodecSharedPool(t *testing.T) {
	if newCodec(t).pool != newCodec(t).pool {
		t.Fatal("codecs without WithParallelism do not share the default pool")
	}
	if newCodec(t, WithParallelism(2)).pool == newCodec(t).pool {
		t.Fatal("WithParallelism did not give the codec its own pool")
	}
}

// TestCodecChunkedStreams: WithChunkElems flips large tensors to the v4
// chunked layout; disabling keeps the legacy bytes.
func TestCodecChunkedStreams(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(31, 32))
	sd := buildDemoDict(rng) // conv.weight: 4608 elements → 3 chunks at 2048

	chunked, err := New(WithChunkElems(2048), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if chunked.Options().ChunkElems != 2048 {
		t.Fatalf("ChunkElems not applied: %+v", chunked.Options())
	}
	stream, stats, err := chunked.Compress(ctx, sd)
	if err != nil {
		t.Fatal(err)
	}
	if stream[4] != 4 {
		t.Fatalf("stream version %d, want 4", stream[4])
	}
	if stats.ChunkedTensors != 1 {
		t.Fatalf("ChunkedTensors = %d, want 1", stats.ChunkedTensors)
	}
	got, dstats, err := chunked.Decompress(ctx, stream)
	if err != nil {
		t.Fatal(err)
	}
	if dstats.ChunkedTensors != 1 {
		t.Fatalf("decode ChunkedTensors = %d, want 1", dstats.ChunkedTensors)
	}
	// Chunking must not loosen the error contract.
	want := sd.Get("conv.weight").Data
	have := got.Get("conv.weight").Data
	var rangeW float64
	lo, hi := want[0], want[0]
	for _, v := range want {
		lo, hi = min(lo, v), max(hi, v)
	}
	rangeW = float64(hi - lo)
	for i := range want {
		d := float64(want[i] - have[i])
		if d < 0 {
			d = -d
		}
		if d > 1e-2*rangeW*(1+1e-6) {
			t.Fatalf("element %d error %g exceeds REL 1e-2 bound", i, d)
		}
	}

	// A stream from any codec stays self-describing: the default codec
	// (chunking unconfigured) decodes it identically.
	plainCodec, err := New()
	if err != nil {
		t.Fatal(err)
	}
	got2, _, err := plainCodec.Decompress(ctx, stream)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := got2.MaxAbsDiff(got); err != nil || d != 0 {
		t.Fatalf("cross-codec decode differs: d=%v err=%v", d, err)
	}

	// Disabled chunking reproduces the legacy v2 bytes exactly.
	off, err := New(WithChunkElems(-1))
	if err != nil {
		t.Fatal(err)
	}
	offStream, _, err := off.Compress(ctx, sd)
	if err != nil {
		t.Fatal(err)
	}
	legacy, _, err := plainCodec.Compress(ctx, sd)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(offStream, legacy) {
		t.Fatal("WithChunkElems(-1) stream differs from legacy bytes")
	}
}
