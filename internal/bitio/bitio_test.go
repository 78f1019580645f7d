package bitio

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestWriteReadSingleBits(t *testing.T) {
	w := new(Writer)
	pattern := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	r := NewReader(w.Bytes())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d: got %d want %d", i, got, want)
		}
	}
}

func TestWriteBitsWidths(t *testing.T) {
	w := NewWriterBuffer(make([]byte, 0, 16))
	w.WriteBits(0b101, 3)
	w.WriteBits(0xFFFF, 16)
	w.WriteBits(0, 0) // zero-width write is a no-op
	w.WriteBits(0x1234567890ABCDEF, 64)
	r := NewReader(w.Bytes())
	if v, _ := r.ReadBits(3); v != 0b101 {
		t.Fatalf("3-bit field: got %#x", v)
	}
	if v, _ := r.ReadBits(16); v != 0xFFFF {
		t.Fatalf("16-bit field: got %#x", v)
	}
	if v, _ := r.ReadBits(64); v != 0x1234567890ABCDEF {
		t.Fatalf("64-bit field: got %#x", v)
	}
}

func TestReaderEOF(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBit(); err != ErrUnexpectedEOF {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
	if _, err := r.ReadBits(4); err != ErrUnexpectedEOF {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
}

func TestBitLenAndRemaining(t *testing.T) {
	w := new(Writer)
	w.WriteBits(0, 13)
	r := NewReader(w.Bytes()) // padded to 16 bits
	if r.BitsRemaining() != 16 {
		t.Fatalf("BitsRemaining = %d want 16", r.BitsRemaining())
	}
	r.ReadBits(5)
	if r.BitsRemaining() != 11 {
		t.Fatalf("BitsRemaining = %d want 11", r.BitsRemaining())
	}
}

// Property: any sequence of (value,width) fields round-trips exactly.
func TestQuickFieldRoundTrip(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 42))
		count := int(n%64) + 1
		vals := make([]uint64, count)
		widths := make([]uint, count)
		w := new(Writer)
		for i := range vals {
			widths[i] = uint(rng.IntN(64) + 1)
			vals[i] = rng.Uint64() & (^uint64(0) >> (64 - widths[i]))
			w.WriteBits(vals[i], widths[i])
		}
		r := NewReader(w.Bytes())
		for i := range vals {
			got, err := r.ReadBits(widths[i])
			if err != nil || got != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPeekConsumeFastPath(t *testing.T) {
	w := new(Writer)
	w.WriteBits(0b1011, 4)
	w.WriteBits(0x3FFF, 14)
	w.WriteBits(0xABCDE, 20)
	data := w.Bytes()

	r := NewReader(data)
	r.Refill()
	if got := r.Peek(4); got != 0b1011 {
		t.Fatalf("Peek(4) = %#b", got)
	}
	// Peek must not consume.
	if got := r.Peek(4); got != 0b1011 {
		t.Fatalf("second Peek(4) = %#b", got)
	}
	r.Consume(4)
	r.Refill()
	if got := r.Peek(14); got != 0x3FFF {
		t.Fatalf("Peek(14) = %#x", got)
	}
	r.Consume(14)
	r.Refill()
	if got := r.Peek(20); got != 0xABCDE {
		t.Fatalf("Peek(20) = %#x", got)
	}
	r.Consume(20)
	if rem := r.BitsRemaining(); rem != len(data)*8-38 {
		t.Fatalf("BitsRemaining = %d want %d", rem, len(data)*8-38)
	}
}

func TestPeekPastEndReadsZero(t *testing.T) {
	r := NewReader([]byte{0xFF})
	r.Refill()
	if r.Buffered() != 8 {
		t.Fatalf("Buffered = %d want 8", r.Buffered())
	}
	// Bits beyond the stream must read as zero, however the 8 real bits
	// were consumed beforehand.
	if got := r.Peek(12); got != 0xFF0 {
		t.Fatalf("Peek(12) = %#x want 0xFF0", got)
	}
	r.Consume(8)
	r.Refill()
	if got := r.Peek(8); got != 0 {
		t.Fatalf("Peek past end = %#x want 0", got)
	}
}

func TestConsumeOverrunPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Consume past Buffered must panic")
		}
	}()
	r := NewReader([]byte{0xAA})
	r.Refill()
	r.Consume(9)
}

// Refill/Peek/Consume interleaved with the classic APIs must agree with a
// pure ReadBits decode of the same stream.
func TestQuickPeekConsumeEquivalence(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		count := int(n%48) + 1
		vals := make([]uint64, count)
		widths := make([]uint, count)
		w := new(Writer)
		for i := range vals {
			widths[i] = uint(rng.IntN(56) + 1)
			vals[i] = rng.Uint64() & (^uint64(0) >> (64 - widths[i]))
			w.WriteBits(vals[i], widths[i])
		}
		r := NewReader(w.Bytes())
		for i := range vals {
			if rng.IntN(2) == 0 {
				r.Refill()
				if r.Buffered() < widths[i] {
					return false
				}
				if r.Peek(widths[i]) != vals[i] {
					return false
				}
				r.Consume(widths[i])
			} else {
				got, err := r.ReadBits(widths[i])
				if err != nil || got != vals[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNewWriterBuffer(t *testing.T) {
	backing := make([]byte, 5, 32)
	w := NewWriterBuffer(backing)
	w.WriteBits(0xBEEF, 16)
	out := w.Bytes()
	if len(out) != 2 || out[0] != 0xBE || out[1] != 0xEF {
		t.Fatalf("bytes % x", out)
	}
	if &out[0] != &backing[:1][0] {
		t.Fatal("writer did not reuse the supplied backing array")
	}
}

// TestStoreBitsMatchesWriter writes random fields through StoreBits, with
// junk above the pending bits of the accumulator, and through a Writer: the
// bytes must agree, and nothing may be stored past the 8-byte slack.
func TestStoreBitsMatchesWriter(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for trial := 0; trial < 200; trial++ {
		var w Writer
		buf := make([]byte, 0, 4096)
		buf = buf[:cap(buf)]
		pos, acc, nacc := 0, rng.Uint64(), uint(0)
		for i := 0; i < 200; i++ {
			n := uint(rng.IntN(57)) // nacc < 8 before, so nacc+n ≤ 63
			v := rng.Uint64() & (1<<n - 1)
			w.WriteBits(v, n)
			acc = acc<<n | v
			nacc += n
			pos, nacc = StoreBits(buf, pos, acc, nacc)
			if nacc >= 8 {
				t.Fatalf("trial %d: %d bits left pending", trial, nacc)
			}
		}
		StoreBits(buf, pos, acc, nacc)
		got, want := buf[:pos+int(nacc+7)/8], w.Bytes()
		if string(got) != string(want) {
			t.Fatalf("trial %d: StoreBits % x, Writer % x", trial, got, want)
		}
		for _, b := range buf[pos+8:] {
			if b != 0 {
				t.Fatalf("trial %d: a store reached past the 8-byte slack", trial)
			}
		}
	}
}

func BenchmarkWriteBits(b *testing.B) {
	buf := make([]byte, 0, 1<<16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := NewWriterBuffer(buf)
		for j := 0; j < 4096; j++ {
			w.WriteBits(uint64(j), 13)
		}
	}
}

func BenchmarkReadBits(b *testing.B) {
	w := new(Writer)
	for j := 0; j < 4096; j++ {
		w.WriteBits(uint64(j), 13)
	}
	data := w.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(data)
		for j := 0; j < 4096; j++ {
			r.ReadBits(13)
		}
	}
}
