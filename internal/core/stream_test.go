package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/sched"
)

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
	rng := rand.New(rand.NewPCG(31, 32))
	sd := modelDict(rng)
	stream, _, err := Compress(sd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 7, 512, 1 << 20} {
		got, stats, err := DecompressFrom(context.Background(), sched.Default(), &trickleReader{r: bytes.NewReader(stream), chunk: chunk}, DecodeOptions{})
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("chunk %d: streaming decode differs from in-memory", chunk)
		}
		if stats.DecompressTime <= 0 || stats.DecodeWork <= 0 {
			t.Fatalf("chunk %d: stats not populated: %+v", chunk, stats)
		}
	}
}

func TestDecompressFromSlowReaderOverlapsDecode(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 34))
	sd := modelDict(rng)
	stream, _, err := Compress(sd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	slow := &trickleReader{r: bytes.NewReader(stream), chunk: 4096, delay: 200 * time.Microsecond}
	got, stats, err := DecompressFrom(context.Background(), sched.NewPool(4), slow, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != sd.Len() {
		t.Fatalf("decoded %d entries, want %d", got.Len(), sd.Len())
	}
	if stats.ReadWait <= 0 {
		t.Fatalf("slow reader recorded no read wait: %+v", stats)
	}
	if r := stats.OverlapRatio(); r < 0 || r > 1 {
		t.Fatalf("overlap ratio %v out of [0,1]", r)
	}
}

func TestDecompressFromTruncationFailsCleanly(t *testing.T) {
	rng := rand.New(rand.NewPCG(35, 36))
	sd := modelDict(rng)
	stream, _, err := Compress(sd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	step := len(stream)/100 + 1
	for l := 0; l < len(stream); l += step {
		if _, _, err := DecompressFrom(context.Background(), sched.Default(), bytes.NewReader(stream[:l]), DecodeOptions{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: error %v does not wrap ErrCorrupt", l, err)
		}
	}
}

func TestDecompressFromRejectsHostileLengths(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 38))
	sd := modelDict(rng)
	stream, _, err := Compress(sd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Entry count far beyond the cap must be rejected before allocation.
	bad := append([]byte(nil), stream...)
	nameEnd := 5 + 1 + int(bad[5])
	nameEnd += 1 + int(bad[nameEnd])
	bad[nameEnd+2] = 0xFF // count high bytes
	bad[nameEnd+3] = 0xFF
	if _, _, err := DecompressFrom(context.Background(), sched.Default(), bytes.NewReader(bad), DecodeOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile entry count: %v", err)
	}
}

func TestSectionsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(39, 40))
	sd := modelDict(rng)
	stream, stats, err := Compress(sd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	secs, err := Sections(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(secs.Tensors) != stats.LossyTensors {
		t.Fatalf("%d tensor sections, want %d", len(secs.Tensors), stats.LossyTensors)
	}
	var rebuilt []byte
	rebuilt = append(rebuilt, secs.Header...)
	for _, ts := range secs.Tensors {
		rebuilt = append(rebuilt, ts...)
	}
	rebuilt = append(rebuilt, secs.Lossless...)
	if !bytes.Equal(rebuilt, stream) {
		t.Fatal("concatenated sections differ from the original stream")
	}
	// Each boundary must still decode when fed incrementally.
	got, _, err := DecompressFrom(context.Background(), sched.Default(), bytes.NewReader(rebuilt), DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != sd.Len() {
		t.Fatalf("decoded %d entries, want %d", got.Len(), sd.Len())
	}
}

func TestSectionsRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	sd := modelDict(rng)
	stream, _, err := Compress(sd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"version", func(b []byte) []byte { b[4] ^= 0x55; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
	} {
		bad := tc.mutate(append([]byte(nil), stream...))
		if _, err := Sections(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v does not wrap ErrCorrupt", tc.name, err)
		}
	}
}

func TestOverlapRatioBounds(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stats DecompressStats
		want  float64
	}{
		{"no-work", DecompressStats{DecompressTime: time.Second}, 0},
		{"serial", DecompressStats{DecompressTime: 3 * time.Second, ReadWait: 2 * time.Second, DecodeWork: time.Second}, 0},
		{"full-overlap", DecompressStats{DecompressTime: 2 * time.Second, ReadWait: 2 * time.Second, DecodeWork: time.Second}, 1},
		{"half", DecompressStats{DecompressTime: 2500 * time.Millisecond, ReadWait: 2 * time.Second, DecodeWork: time.Second}, 0.5},
	} {
		if got := tc.stats.OverlapRatio(); got != tc.want {
			t.Errorf("%s: overlap %v, want %v", tc.name, got, tc.want)
		}
	}
}
