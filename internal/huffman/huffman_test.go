package huffman

import (
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/bitio"
)

func TestSingleSymbol(t *testing.T) {
	c, err := NewCodec([]uint64{0, 5, 0})
	if err != nil {
		t.Fatal(err)
	}
	w := new(bitio.Writer)
	for i := 0; i < 5; i++ {
		c.Encode(w, 1)
	}
	r := bitio.NewReader(w.Bytes())
	for i := 0; i < 5; i++ {
		s, err := c.Decode(r)
		if err != nil || s != 1 {
			t.Fatalf("decode %d: got %d err %v", i, s, err)
		}
	}
}

func TestTwoSymbols(t *testing.T) {
	c, err := NewCodec([]uint64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if c.CodeLen(0) != 1 || c.CodeLen(1) != 1 {
		t.Fatalf("lengths %d %d, want 1 1", c.CodeLen(0), c.CodeLen(1))
	}
}

func TestSkewedDistribution(t *testing.T) {
	// A very skewed distribution must give the hot symbol a short code.
	freqs := make([]uint64, 64)
	freqs[10] = 1_000_000
	for i := range freqs {
		if i != 10 {
			freqs[i] = 1
		}
	}
	c, err := NewCodec(freqs)
	if err != nil {
		t.Fatal(err)
	}
	if c.CodeLen(10) > 2 {
		t.Fatalf("hot symbol code length %d, want <= 2", c.CodeLen(10))
	}
	for i := range freqs {
		if c.CodeLen(i) == 0 {
			t.Fatalf("symbol %d lost its code", i)
		}
	}
}

func TestLengthLimiting(t *testing.T) {
	// Fibonacci-like frequencies force deep trees; lengths must be capped.
	freqs := make([]uint64, 48)
	a, b := uint64(1), uint64(1)
	for i := range freqs {
		freqs[i] = a
		a, b = b, a+b
		if a > 1<<60 {
			a = 1 << 60
		}
	}
	c, err := NewCodec(freqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range freqs {
		if l := c.CodeLen(i); l == 0 || l > MaxCodeLen {
			t.Fatalf("symbol %d length %d outside (0,%d]", i, l, MaxCodeLen)
		}
	}
}

func TestRoundTripSequence(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	const alphabet = 512
	syms := make([]uint16, 20000)
	for i := range syms {
		// Geometric-ish distribution centered at 256, like quantization codes.
		v := 256 + int(rng.NormFloat64()*12)
		if v < 0 {
			v = 0
		}
		if v >= alphabet {
			v = alphabet - 1
		}
		syms[i] = uint16(v)
	}
	enc, err := EncodeAllU16(syms, alphabet)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= len(syms)*2 {
		t.Fatalf("no compression: %d bytes for %d symbols", len(enc), len(syms))
	}
	dec, err := DecodeAllU16(enc, alphabet)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(syms) {
		t.Fatalf("len mismatch %d != %d", len(dec), len(syms))
	}
	for i := range syms {
		if dec[i] != syms[i] {
			t.Fatalf("symbol %d: got %d want %d", i, dec[i], syms[i])
		}
	}
}

func TestEncodeAllEmpty(t *testing.T) {
	enc, err := EncodeAllU16(nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeAllU16(enc, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 0 {
		t.Fatalf("want empty, got %d symbols", len(dec))
	}
}

func TestEncodeAllOutOfRange(t *testing.T) {
	if _, err := EncodeAllU16([]uint16{5}, 4); err == nil {
		t.Fatal("want error for out-of-alphabet symbol")
	}
	if _, err := EncodeAllU16([]uint16{4}, 4); err == nil {
		t.Fatal("want error for the first symbol past the alphabet")
	}
}

func TestCodecSerializationViaLengths(t *testing.T) {
	freqs := []uint64{9, 0, 4, 1, 1, 7, 0, 2}
	c1, err := NewCodec(freqs)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewCodecFromLengths(c1.Lengths())
	if err != nil {
		t.Fatal(err)
	}
	w := new(bitio.Writer)
	seq := []int{0, 5, 2, 0, 7, 3, 4, 5, 0}
	for _, s := range seq {
		c1.Encode(w, s)
	}
	r := bitio.NewReader(w.Bytes())
	for i, want := range seq {
		got, err := c2.Decode(r)
		if err != nil || got != want {
			t.Fatalf("pos %d: got %d want %d err %v", i, got, want, err)
		}
	}
}

func TestBadLengthTables(t *testing.T) {
	// Over-subscribed code (violates Kraft inequality).
	if _, err := NewCodecFromLengths([]uint8{1, 1, 1}); err == nil {
		t.Fatal("want error for oversubscribed lengths")
	}
	// Over-long code.
	if _, err := NewCodecFromLengths([]uint8{MaxCodeLen + 1}); err == nil {
		t.Fatal("want error for over-long code")
	}
	// The same faults, and a run past the declared alphabet, in the run
	// tables of whole blobs of both layouts.
	for name, blob := range hostileLengthTables() {
		if _, err := DecodeMultiU16(blob, 4); !errors.Is(err, ErrBadLengths) {
			t.Errorf("%s: err %v, want ErrBadLengths", name, err)
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, err := DecodeAllU16([]byte{0x00, 0x01}, 16); err == nil {
		t.Fatal("want error for truncated stream")
	}
}

// Property: random symbol sequences over random alphabet sizes round-trip.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed uint64, alphaSel uint8, nSel uint16) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		alphabet := int(alphaSel%250) + 2
		n := int(nSel % 2000)
		syms := make([]uint16, n)
		for i := range syms {
			syms[i] = uint16(rng.IntN(alphabet))
		}
		enc, err := EncodeAllU16(syms, alphabet)
		if err != nil {
			return false
		}
		dec, err := DecodeAllU16(enc, alphabet)
		if err != nil || len(dec) != n {
			return false
		}
		for i := range syms {
			if dec[i] != syms[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeAll(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 4))
	syms := make([]uint16, 1<<16)
	for i := range syms {
		v := 256 + int(rng.NormFloat64()*8)
		if v < 0 {
			v = 0
		}
		if v > 511 {
			v = 511
		}
		syms[i] = uint16(v)
	}
	b.SetBytes(int64(len(syms)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeAllU16(syms, 512); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeAll(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 4))
	syms := make([]uint16, 1<<16)
	for i := range syms {
		v := 256 + int(rng.NormFloat64()*8)
		if v < 0 {
			v = 0
		}
		if v > 511 {
			v = 511
		}
		syms[i] = uint16(v)
	}
	enc, _ := EncodeAllU16(syms, 512)
	b.SetBytes(int64(len(syms)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeAllU16(enc, 512); err != nil {
			b.Fatal(err)
		}
	}
}
