package core_test

// Decoding a stream as it arrives over an io.Reader. The one way to do that
// is wire-framed: wire.SectionSource hands each frame to core.DecodeSections
// as its section. These tests hold that path to the in-memory decode, and to
// the overlap, truncation, hostile-length and cancellation contracts of a
// streaming receive. They live in an external test package because wire
// imports core.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eblctest"
	"repro/internal/sched"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// decompressFrom decodes the wire stream arriving on r on pool.
func decompressFrom(ctx context.Context, pool *sched.Pool, r io.Reader) (*tensor.StateDict, *core.DecompressStats, error) {
	d, stats, err := core.DecodeSections(ctx, pool, wire.NewSectionSource(ctx, r), core.DecodeOptions{})
	if err != nil {
		return nil, nil, err
	}
	return d.StateDict(), stats, nil
}

// framedStream compresses a dict of tensors lossy weights of elems elements
// (and one bias) and frames it: the plain stream and its wire form.
func framedStream(t *testing.T, seed uint64, tensors, elems int) (stream, framed []byte) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 78))
	sd := tensor.NewStateDict()
	for i := 0; i < tensors; i++ {
		sd.Add(string(rune('a'+i))+".weight", tensor.KindWeight, tensor.FromData(eblctest.WeightLike(rng, elems), elems))
	}
	sd.Add("head.bias", tensor.KindBias, tensor.FromData(eblctest.WeightLike(rng, 64), 64))
	stream, _, err := core.Compress(sd, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wire.NewWriter(&buf).WriteStream(stream); err != nil {
		t.Fatal(err)
	}
	return stream, buf.Bytes()
}

// trickleReader delivers at most chunk bytes per Read with a small delay —
// a stand-in for a slow socket.
type trickleReader struct {
	r     io.Reader
	chunk int
	delay time.Duration
}

func (t *trickleReader) Read(p []byte) (int, error) {
	if len(p) > t.chunk {
		p = p[:t.chunk]
	}
	if t.delay > 0 {
		time.Sleep(t.delay)
	}
	return t.r.Read(p)
}

func TestDecompressFromMatchesInMemory(t *testing.T) {
	stream, framed := framedStream(t, 31, 2, 18432)
	want, wantStats, err := core.Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 7, 512, 1 << 20} {
		got, stats, err := decompressFrom(context.Background(), sched.Default(), &trickleReader{r: bytes.NewReader(framed), chunk: chunk})
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("chunk %d: streaming decode differs from in-memory", chunk)
		}
		if stats.DecompressTime <= 0 || stats.DecodeWork <= 0 {
			t.Fatalf("chunk %d: stats not populated: %+v", chunk, stats)
		}
		// The frames' payloads are the stream's sections: no framing counts.
		if stats.CompressedBytes != len(stream) || stats.RawBytes != wantStats.RawBytes {
			t.Fatalf("chunk %d: %d of %d raw bytes, %d of %d stream bytes", chunk,
				stats.RawBytes, wantStats.RawBytes, stats.CompressedBytes, len(stream))
		}
	}
}

func TestDecompressFromSlowReaderOverlapsDecode(t *testing.T) {
	_, framed := framedStream(t, 33, 4, 18432)
	slow := &trickleReader{r: bytes.NewReader(framed), chunk: 4096, delay: 200 * time.Microsecond}
	got, stats, err := decompressFrom(context.Background(), sched.NewPool(4), slow)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 5 {
		t.Fatalf("decoded %d entries, want 5", got.Len())
	}
	if stats.ReadWait <= 0 {
		t.Fatalf("slow reader recorded no read wait: %+v", stats)
	}
	if r := stats.OverlapRatio(); r < 0 || r > 1 {
		t.Fatalf("overlap ratio %v out of [0,1]", r)
	}
}

func TestDecompressFromTruncationFailsCleanly(t *testing.T) {
	_, framed := framedStream(t, 35, 2, 18432)
	step := len(framed)/100 + 1
	for l := 0; l < len(framed); l += step {
		if _, _, err := decompressFrom(context.Background(), sched.Default(), bytes.NewReader(framed[:l])); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("truncation at %d: error %v does not wrap ErrCorrupt", l, err)
		}
	}
}

// TestTrailingBytesRefused: a FedSZ stream ends with its metadata section,
// so bytes after it are corruption, refused where the sections are cut: by
// Sections, by DecompressWith and by the sender's WriteStream, which frames
// what Sections cuts.
func TestTrailingBytesRefused(t *testing.T) {
	stream, _ := framedStream(t, 36, 1, 2048)
	for _, tail := range [][]byte{nil, {1, 2, 3, 4}} {
		long := append(stream[:len(stream):len(stream)], tail...)
		want := func(what string, err error) {
			t.Helper()
			if len(tail) == 0 && err != nil {
				t.Errorf("%s of the stream itself: %v", what, err)
			}
			if len(tail) > 0 && !errors.Is(err, core.ErrCorrupt) {
				t.Errorf("%s with %d bytes appended: error %v does not wrap ErrCorrupt", what, len(tail), err)
			}
		}
		_, err := core.Sections(long)
		want("Sections", err)
		_, _, err = core.DecompressWith(context.Background(), nil, long, core.DecodeOptions{})
		want("DecompressWith", err)
		want("WriteStream", wire.NewWriter(io.Discard).WriteStream(long))
	}
}

// TestDecompressFromRejectsHostileLengths: an entry count far beyond the cap
// is refused as over the limit (ErrLimit, as an in-memory decode refuses it)
// before its flag array is allocated, and a frame declaring a
// payload far beyond what arrives fails as a short stream: the receive
// buffer grows with the bytes received, not with the declared length.
func TestDecompressFromRejectsHostileLengths(t *testing.T) {
	stream, framed := framedStream(t, 37, 2, 18432)
	secs, err := core.Sections(stream)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := core.ParseHeader(secs.Header)
	if err != nil {
		t.Fatal(err)
	}
	hdr := bytes.Clone(secs.Header)
	count := len(hdr) - len(ph.Flags) - 4 // the header ends in the count and the flags
	binary.LittleEndian.PutUint32(hdr[count:], 0xFFFF0000)
	var bad bytes.Buffer
	w := wire.NewWriter(&bad)
	err = w.WriteFrame(wire.FrameHeader, hdr)
	for _, ts := range secs.Tensors {
		if err == nil {
			err = w.WriteFrame(wire.FrameTensor, ts)
		}
	}
	if err == nil {
		err = w.WriteFrame(wire.FrameLossless, secs.Lossless)
	}
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decompressFrom(context.Background(), sched.Default(), &bad); !errors.Is(err, core.ErrCorrupt) || !errors.Is(err, core.ErrLimit) {
		t.Fatalf("hostile entry count: %v, want ErrCorrupt and ErrLimit", err)
	}

	long := bytes.Clone(framed)
	binary.LittleEndian.PutUint32(long[6:], 1<<30-1) // the header frame's length, after the 5-byte preamble and its kind
	before := sched.RecycledBytes()
	if _, _, err := decompressFrom(context.Background(), sched.Default(), bytes.NewReader(long)); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("hostile frame length: %v", err)
	}
	if grew := sched.RecycledBytes() - before; grew > 1<<22 {
		t.Fatalf("a %d-byte stream grew a %d-byte receive buffer", len(long), grew)
	}
}

// TestStreamElementCap: a stream whose lossy tensors each pass
// ebcl.MaxElements but together declare more than the per-stream cap is
// refused as ErrCorrupt at the tensor that crosses it, before that tensor's
// buffer is taken: the float pool records one get (the first tensor's) and
// has it back afterwards. The cap is lowered to 2^16 so the stream stays
// small; two tensors of 40,000 elements each fit it alone and exceed it
// together. Both ways in are held: Decompress and the wire path.
func TestStreamElementCap(t *testing.T) {
	defer core.SetMaxStreamElements(1 << 16)()
	stream, framed := framedStream(t, 41, 2, 40_000)
	for name, decode := range map[string]func() error{
		"Decompress": func() error { _, _, err := core.Decompress(stream); return err },
		"wire": func() error {
			_, _, err := decompressFrom(context.Background(), sched.Default(), bytes.NewReader(framed))
			return err
		},
	} {
		hits0, misses0 := sched.FloatPoolCounters()
		puts0 := sched.FloatPoolPuts()
		if err := decode(); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("%s: 80,000 elements against a cap of 65,536: %v, want ErrCorrupt", name, err)
		}
		hits1, misses1 := sched.FloatPoolCounters()
		gets, puts := (hits1+misses1)-(hits0+misses0), sched.FloatPoolPuts()-puts0
		if gets != 1 || puts != gets {
			t.Fatalf("%s: the refused decode took %d float buffers and returned %d, want 1 and 1", name, gets, puts)
		}
	}
}

// stallReader serves the stream in small chunks, blocking after a
// cutoff until released — a socket that stalls mid-stream.
type stallReader struct {
	data    []byte
	pos     int
	cutoff  int
	stalled chan struct{}
	release chan struct{}
}

func (r *stallReader) Read(p []byte) (int, error) {
	if r.pos >= r.cutoff {
		select {
		case r.stalled <- struct{}{}:
		default:
		}
		<-r.release
	}
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.pos:min(r.pos+512, len(r.data))])
	r.pos += n
	return n, nil
}

// TestDecompressFromCancellation: cancelling mid-receive must return
// ctx.Err() promptly (the next read aborts, not just the next section)
// and leak no pool slots.
func TestDecompressFromCancellation(t *testing.T) {
	stream, framed := framedStream(t, 5, 6, 1<<14)
	pool := sched.NewPool(4)
	r := &stallReader{
		data: framed, cutoff: len(framed) / 2,
		stalled: make(chan struct{}, 1), release: make(chan struct{}),
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := decompressFrom(ctx, pool, r)
		done <- err
	}()
	<-r.stalled
	cancel()
	close(r.release)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("decompressFrom did not return after cancellation")
	}
	if n := pool.Busy(); n != 0 {
		t.Fatalf("%d pool slots leaked after cancellation", n)
	}
	// Same stream, same pool, fresh context: must still decode cleanly.
	want, _, err := core.Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := decompressFrom(context.Background(), pool, bytes.NewReader(framed))
	if err != nil {
		t.Fatal(err)
	}
	if d, err := got.MaxAbsDiff(want); err != nil || d != 0 {
		t.Fatalf("post-cancel decode differs: d=%v err=%v", d, err)
	}
}
