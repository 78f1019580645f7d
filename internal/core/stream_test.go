package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/tensor"
)

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
	got, _, err := Decompress(rebuilt)
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

// TestParseShapeOverflow: a shape is checked dimension by dimension, and its
// running product, as 64-bit counts before any int conversion, so where int
// is 32 bits a dimension of 2^31 or more cannot go negative and 65536×65536
// cannot wrap to 0 under ebcl.MaxElements: both are refused as the section
// parses, as on a 64-bit host.
func TestParseShapeOverflow(t *testing.T) {
	sd := tensor.NewStateDict()
	sd.Add("w", tensor.KindWeight, tensor.New(64, 64))
	stream, _, err := Compress(sd, Options{})
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
	sec := secs.Tensors[0]
	dims := 1 + int(sec[0]) + 2 // name, kind, rank
	for _, shape := range [][2]uint32{{0x80000001, 1}, {1, 0x80000001}, {0, 0x80000001}, {65536, 65536}} {
		patched := append([]byte(nil), sec...)
		binary.LittleEndian.PutUint32(patched[dims:], shape[0])
		binary.LittleEndian.PutUint32(patched[dims+4:], shape[1])
		if _, err := ParseTensorSection(hdr, patched, nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("shape %d×%d: err %v, want ErrCorrupt", shape[0], shape[1], err)
		}
	}
}
