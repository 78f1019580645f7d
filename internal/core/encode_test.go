package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/compressors"
	"repro/internal/ebcl"
	"repro/internal/eblctest"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// encodeDict builds a multi-tensor dict large enough that the encoder's
// window pipeline actually pipelines.
func encodeDict(seed uint64, tensors, elems int) *tensor.StateDict {
	rng := rand.New(rand.NewPCG(seed, 77))
	sd := tensor.NewStateDict()
	for i := 0; i < tensors; i++ {
		sd.Add(names[i%len(names)]+string(rune('a'+i)), tensor.KindWeight,
			tensor.FromData(eblctest.WeightLike(rng, elems), elems))
	}
	b := tensor.New(64)
	for i := range b.Data {
		b.Data[i] = float32(0.01 * rng.NormFloat64())
	}
	sd.Add("head.bias", tensor.KindBias, b)
	return sd
}

var names = []string{"conv.weight.", "fc.weight.", "proj.weight."}

// compressTo runs the one encoder into w, one Write a section: a sender
// streaming onto a socket (wire.EncodeStream frames the same sections).
func compressTo(ctx context.Context, pool *sched.Pool, w io.Writer, sd *tensor.StateDict, opts Options) (*Stats, error) {
	return CompressSections(ctx, pool, sd, opts, func(_ SectionKind, payload []byte) error {
		_, err := w.Write(payload)
		return err
	})
}

// TestCompressToMatchesCompress locks the core bit-identity contract: the
// incremental section encoder writing to an io.Writer (compressTo) must
// reproduce the buffered Compress bytes exactly, for every EBLC and both
// bound modes.
func TestCompressToMatchesCompress(t *testing.T) {
	sd := encodeDict(1, 5, 4096)
	for _, name := range compressors.Names() {
		comp, err := compressors.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, params := range []ebcl.Params{ebcl.Rel(1e-2), ebcl.Abs(1e-3)} {
			opts := Options{Lossy: comp, LossyParams: params}
			want, wstats, err := Compress(sd, opts)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, params.Mode, err)
			}
			var buf bytes.Buffer
			stats, err := compressTo(context.Background(), sched.Default(), &buf, sd, opts)
			if err != nil {
				t.Fatalf("%s/%v: compressTo: %v", name, params.Mode, err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s/%v: compressTo bytes differ from Compress", name, params.Mode)
			}
			if stats.CompressedBytes != wstats.CompressedBytes || stats.CompressedBytes != buf.Len() {
				t.Fatalf("%s/%v: CompressedBytes %d (want %d, wrote %d)",
					name, params.Mode, stats.CompressedBytes, wstats.CompressedBytes, buf.Len())
			}
			if stats.EncodeWork <= 0 {
				t.Fatalf("%s/%v: EncodeWork not recorded: %+v", name, params.Mode, stats)
			}
		}
	}
}

// TestCompressToSerialPoolMatches: the nil-pool (serial) encoder must also
// be bit-identical — ordering never depends on scheduling.
func TestCompressToSerialPoolMatches(t *testing.T) {
	sd := encodeDict(2, 4, 2048)
	want, _, err := Compress(sd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := compressTo(context.Background(), nil, &buf, sd, Options{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("serial compressTo differs from pooled Compress")
	}
}

// TestCompressToOverlap: under a throttled writer, tensor i's send must
// hide tensor i+1's compression — the encode-side pipelining payoff the
// streaming client exists for.
func TestCompressToOverlap(t *testing.T) {
	if testing.Short() {
		t.Skip("throttled-writer timing test")
	}
	sd := encodeDict(3, 8, 1<<16)
	pool := sched.NewPool(4)
	link := netsim.Link{BandwidthMbps: 20}
	stats, err := compressTo(context.Background(), pool, link.ThrottleWriter(io.Discard), sd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.WriteWait <= 0 {
		t.Fatalf("no write wait recorded over a 20 Mbps link: %+v", stats)
	}
	if r := stats.EncodeOverlapRatio(); r <= 0 || r > 1 {
		t.Fatalf("encode overlap ratio %v, want in (0, 1]", r)
	}
}

// blockingWriter blocks in Write until released, then fails.
type blockingWriter struct {
	entered chan struct{}
	release chan struct{}
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	select {
	case w.entered <- struct{}{}:
	default:
	}
	<-w.release
	return 0, errors.New("blockingWriter: released")
}

// TestCompressToCancellation: cancelling mid-encode must return ctx.Err()
// promptly and leave the pool with no leaked slots or stuck workers.
func TestCompressToCancellation(t *testing.T) {
	sd := encodeDict(4, 6, 1<<15)
	pool := sched.NewPool(4)
	w := &blockingWriter{entered: make(chan struct{}, 1), release: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())

	done := make(chan error, 1)
	go func() {
		_, err := compressTo(ctx, pool, w, sd, Options{})
		done <- err
	}()
	<-w.entered // encoder is blocked writing a section
	cancel()
	close(w.release) // unblock the writer; the encoder must prefer ctx.Err()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("compressTo did not return after cancellation")
	}
	if n := pool.Busy(); n != 0 {
		t.Fatalf("%d pool slots leaked after cancellation", n)
	}
	// The pool must still drive a full encode+decode round trip.
	stream, _, err := CompressWith(context.Background(), pool, sd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecompressWith(context.Background(), pool, stream, DecodeOptions{}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCompressTo measures the streaming encoder against a throttled
// link and reports the encode/send overlap ratio — the Eqn-1 client-side
// win: tC hidden behind the upload of S'.
func BenchmarkCompressTo(b *testing.B) {
	sd := encodeDict(7, 8, 1<<16)
	pool := sched.NewPool(4)
	link := netsim.Link{BandwidthMbps: 20}
	var overlap float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stats, err := compressTo(context.Background(), pool, link.ThrottleWriter(io.Discard), sd, Options{})
		if err != nil {
			b.Fatal(err)
		}
		overlap = stats.EncodeOverlapRatio()
	}
	b.ReportMetric(overlap, "overlap")
}

// recordingCompressor wraps an EBLC and records the address of the first
// byte each CompressAppend call produced, so the no-copy test below can
// verify the emitted section aliases the codec's own output bytes.
type recordingCompressor struct {
	ebcl.Compressor
	blobPtrs []*byte
}

func (r *recordingCompressor) CompressAppend(dst []byte, data []float32, p ebcl.Params) ([]byte, error) {
	out, err := r.Compressor.CompressAppend(dst, data, p)
	if err == nil && len(out) > len(dst) {
		r.blobPtrs = append(r.blobPtrs, &out[len(dst)])
	}
	return out, err
}

// TestCompressSectionsEmitsBlobInPlace locks the zero-copy section
// contract: the tensor section handed to emit must contain the compressed
// blob exactly where CompressAppend wrote it (behind a reserved fixed-width
// length prefix), not a copy — and the padded prefix must still decode as a
// plain uvarint.
func TestCompressSectionsEmitsBlobInPlace(t *testing.T) {
	sd := encodeDict(7, 3, 4096)
	inner, err := compressors.Get("sz2")
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingCompressor{Compressor: inner}
	var stream []byte
	tensorIdx := 0
	// A nil pool runs the blob workers serially at submit time, so
	// rec.blobPtrs accumulates in emit order without synchronization.
	_, err = CompressSections(context.Background(), nil, sd, Options{Lossy: rec}, func(kind SectionKind, payload []byte) error {
		stream = append(stream, payload...)
		if kind != SectionTensor {
			return nil
		}
		_, pos, ok := nameAt(payload, 0)
		if !ok {
			t.Fatalf("tensor section %d: name", tensorIdx)
		}
		rank := int(payload[pos+1])
		pos += 2 + 4*rank
		l, k := binary.Uvarint(payload[pos:])
		if k != ebcl.SectionLenBytes {
			t.Fatalf("tensor section %d: length prefix is %d bytes, want reserved %d", tensorIdx, k, ebcl.SectionLenBytes)
		}
		blobStart := pos + k
		if int(l) != len(payload)-blobStart {
			t.Fatalf("tensor section %d: prefix says %d blob bytes, section carries %d", tensorIdx, l, len(payload)-blobStart)
		}
		if tensorIdx >= len(rec.blobPtrs) {
			t.Fatalf("tensor section %d emitted but only %d CompressAppend calls recorded", tensorIdx, len(rec.blobPtrs))
		}
		if &payload[blobStart] != rec.blobPtrs[tensorIdx] {
			t.Fatalf("tensor section %d: emitted blob does not alias CompressAppend output (blob was copied)", tensorIdx)
		}
		tensorIdx++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if tensorIdx == 0 {
		t.Fatal("no tensor sections emitted")
	}
	got, _, err := Decompress(stream)
	if err != nil {
		t.Fatalf("decode of zero-copy stream: %v", err)
	}
	if got.NumParams() != sd.NumParams() {
		t.Fatalf("round trip params %d, want %d", got.NumParams(), sd.NumParams())
	}
}
