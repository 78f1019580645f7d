package wire

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/eblctest"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// testDict builds a dict with several lossy tensors and a metadata tail.
func testDict(rng *rand.Rand) *tensor.StateDict {
	sd := tensor.NewStateDict()
	for i, n := range []int{2048, 4096, 3000} {
		w := tensor.FromData(eblctest.WeightLike(rng, n), n)
		sd.Add("layer"+string(rune('a'+i))+".weight", tensor.KindWeight, w)
	}
	b := tensor.New(32)
	for j := range b.Data {
		b.Data[j] = float32(0.01 * rng.NormFloat64())
	}
	sd.Add("head.bias", tensor.KindBias, b)
	return sd
}

// frame builds one wire stream from a FedSZ stream.
func frame(t *testing.T, stream []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteStream(stream); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func compressDict(t *testing.T, seed uint64) ([]byte, *tensor.StateDict) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed+1))
	sd := testDict(rng)
	stream, _, err := core.Compress(sd, core.Options{LossyParams: ebcl.Rel(1e-2)})
	if err != nil {
		t.Fatal(err)
	}
	return stream, sd
}

func TestWriteReadRoundTrip(t *testing.T) {
	stream, _ := compressDict(t, 1)
	framed := frame(t, stream)

	r := NewReader(bytes.NewReader(framed))
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, stream) {
		t.Fatalf("reassembled payload differs: %d bytes vs %d", len(got), len(stream))
	}
	secs, err := core.Sections(stream)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 + len(secs.Tensors); r.Frames() != want {
		t.Fatalf("frames %d, want %d", r.Frames(), want)
	}
}

func TestReaderChunkedDelivery(t *testing.T) {
	stream, _ := compressDict(t, 3)
	framed := frame(t, stream)
	for _, chunk := range []int{1, 3, 64, 4096} {
		r := NewReader(io.MultiReader(
			bytes.NewReader(framed[:7]),
			&oneByteReader{data: framed[7:], chunk: chunk},
		))
		got, err := io.ReadAll(r)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if !bytes.Equal(got, stream) {
			t.Fatalf("chunk %d: payload differs", chunk)
		}
	}
}

type oneByteReader struct {
	data  []byte
	chunk int
}

func (o *oneByteReader) Read(p []byte) (int, error) {
	if len(o.data) == 0 {
		return 0, io.EOF
	}
	n := min(min(len(p), o.chunk), len(o.data))
	copy(p, o.data[:n])
	o.data = o.data[n:]
	return n, nil
}

func TestTruncationWrapsErrCorrupt(t *testing.T) {
	stream, _ := compressDict(t, 4)
	framed := frame(t, stream)
	step := len(framed)/150 + 1
	for l := 0; l < len(framed); l += step {
		_, err := io.ReadAll(NewReader(bytes.NewReader(framed[:l])))
		if !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("truncation at %d of %d: error %v does not wrap core.ErrCorrupt", l, len(framed), err)
		}
	}
}

func TestBitFlipsWrapErrCorrupt(t *testing.T) {
	stream, _ := compressDict(t, 5)
	framed := frame(t, stream)
	rng := rand.New(rand.NewPCG(6, 7))
	for trial := 0; trial < 300; trial++ {
		bad := append([]byte(nil), framed...)
		bad[rng.IntN(len(bad))] ^= byte(rng.IntN(255) + 1)
		got, err := io.ReadAll(NewReader(bytes.NewReader(bad)))
		if err == nil {
			// CRC-32 catches every single-byte flip somewhere in the stream;
			// reaching EOF without an error means a checksum was missed.
			t.Fatalf("trial %d: flipped stream read cleanly (%d bytes)", trial, len(got))
		}
		if !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("trial %d: error %v does not wrap core.ErrCorrupt", trial, err)
		}
	}
}

func TestTrailerDetectsFrameBoundaryTruncation(t *testing.T) {
	// Per-frame CRCs cannot see a stream cut exactly between frames; the
	// trailer's counts must.
	stream, _ := compressDict(t, 8)
	secs, err := core.Sections(stream)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteFrame(FrameHeader, secs.Header); err != nil {
		t.Fatal(err)
	}
	full := NewWriter(io.Discard)
	if err := full.WriteStream(stream); err != nil {
		t.Fatal(err)
	}
	// Graft the full stream's trailer counts onto the short stream: the
	// trailer itself is intact, but promises more frames than arrived.
	w.frames = full.frames
	w.payloadBytes = full.payloadBytes
	w.streamCRC = full.streamCRC
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(NewReader(bytes.NewReader(buf.Bytes()))); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("boundary truncation: error %v does not wrap core.ErrCorrupt", err)
	}
}

func TestWriterRejectsMisuse(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(FrameTensor, []byte{1}); err == nil {
		t.Fatal("write after Close succeeded")
	}
	if err := NewWriter(&bytes.Buffer{}).WriteStream([]byte("not a fedsz stream")); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("framing junk: %v", err)
	}
	// A section is framed under its own kind, and only a section kind is.
	for _, kind := range []core.SectionKind{0, core.SectionKind(FrameTrailer)} {
		if err := NewWriter(&bytes.Buffer{}).WriteSection(kind, nil); err == nil {
			t.Fatalf("section kind %d framed", kind)
		}
	}
	var one bytes.Buffer
	if err := NewWriter(&one).WriteSection(core.SectionLossless, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if got := one.Bytes()[5]; got != FrameLossless {
		t.Fatalf("lossless section framed as kind %#x", got)
	}
}

func TestReaderRejectsNonHeaderFirstFrame(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteFrame(FrameTensor, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(NewReader(bytes.NewReader(buf.Bytes()))); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("tensor-first stream: %v", err)
	}
}

func TestEmptyAndJunkInputs(t *testing.T) {
	for _, in := range [][]byte{nil, {0x46}, []byte("FWR1"), bytes.Repeat([]byte{0xAB}, 64)} {
		if _, err := io.ReadAll(NewReader(bytes.NewReader(in))); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("junk %v: error %v does not wrap core.ErrCorrupt", in[:min(len(in), 8)], err)
		}
	}
}

// TestEncodeStreamMatchesWriteStream: compressing straight into wire
// frames must produce byte-for-byte the frames WriteStream emits for the
// buffered stream — the sender never needs to materialize the stream.
func TestEncodeStreamMatchesWriteStream(t *testing.T) {
	sd := testDict(rand.New(rand.NewPCG(5150, 1)))
	opts := core.Options{LossyParams: ebcl.Rel(1e-2)}
	stream, _, err := core.Compress(sd, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buffered bytes.Buffer
	if err := NewWriter(&buffered).WriteStream(stream); err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	stats, err := EncodeStream(context.Background(), sched.NewPool(2), NewWriter(&streamed), sd, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), buffered.Bytes()) {
		t.Fatal("EncodeStream frames differ from WriteStream of the buffered stream")
	}
	if stats.CompressedBytes != len(stream) {
		t.Fatalf("stats report %d payload bytes, stream is %d", stats.CompressedBytes, len(stream))
	}
	d, _, err := core.DecodeSections(context.Background(), sched.Default(), NewSectionSource(context.Background(), bytes.NewReader(streamed.Bytes())), core.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := d.StateDict()
	want, _, err := core.Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := got.MaxAbsDiff(want); err != nil || d != 0 {
		t.Fatalf("round trip differs: d=%v err=%v", d, err)
	}
}
