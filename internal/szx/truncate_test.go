package szx

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/bitio"
)

// TestAppendTruncatedMatchesWriter holds the truncation loop to a
// bitio.Writer that writes the pending bits and then each value's top keep
// bits, for every keep, every count of pending bits, and block lengths on
// both sides of the two-values-a-store step.
func TestAppendTruncatedMatchesWriter(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	block := make([]float32, blockSize)
	for i := range block {
		block[i] = math.Float32frombits(rng.Uint32())
	}
	for keep := uint(9); keep <= 32; keep++ {
		for nacc := uint(0); nacc < 8; nacc++ {
			for _, n := range []int{1, 2, 3, 8, 9, blockSize - 1, blockSize} {
				pending := rng.Uint64() & (1<<nacc - 1)
				w := new(bitio.Writer)
				w.WriteBits(0xA5, 8) // a byte already written
				w.WriteBits(pending, nacc)
				for _, v := range block[:n] {
					w.WriteBits(uint64(math.Float32bits(v)>>(32-keep)), keep)
				}
				want := w.Bytes()

				buf := make([]byte, 1+4*n+1+8)
				buf[0] = 0xA5
				// Junk above the pending bits must not reach the output.
				acc := rng.Uint64()<<nacc | pending
				pos, acc, left := appendTruncated(buf, 1, acc, nacc, block[:n], keep)
				if left > 7 {
					t.Fatalf("keep=%d nacc=%d n=%d: %d bits left pending", keep, nacc, n, left)
				}
				if left > 0 {
					buf[pos] = byte(acc << (8 - left))
					pos++
				}
				if got := buf[:pos]; !bytes.Equal(got, want) {
					t.Fatalf("keep=%d nacc=%d n=%d: % x, writer % x", keep, nacc, n, got, want)
				}
			}
		}
	}
}
