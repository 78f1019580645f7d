package huffman

import (
	"math/rand/v2"
	"testing"

	"repro/internal/sched"
)

// BenchmarkEncodeStages times a 512 Ki-symbol blob's encode (round_lan's
// chunk) stage by stage: the count of every 8th symbol and the code built
// from it (count), the pair loop writing every code (codes), and the whole
// sampled encode (sampled).
func BenchmarkEncodeStages(b *testing.B) {
	const n = 512 << 10
	syms := quantLikeSymbols(rand.New(rand.NewPCG(55, 56)), n)
	bounds := boundsOf(syms)
	b.Run("count", func(b *testing.B) {
		b.SetBytes(n)
		for range b.N {
			c, _, err := buildSampledCodec(syms, quantAlphabet, 8, bounds)
			if err != nil {
				b.Fatal(err)
			}
			putCodec(c)
		}
	})
	c, bits, err := buildSampledCodec(syms, quantAlphabet, 8, bounds)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]byte, 0, 2*bits/8+64)
	b.Run("codes", func(b *testing.B) {
		b.SetBytes(n)
		for range b.N {
			out = appendCodesU16(out[:0], c.enc, syms, 0, 0)
		}
	})
	b.Run("sampled", func(b *testing.B) {
		b.SetBytes(n)
		for range b.N {
			blob, err := EncodeMultiSampled(syms, quantAlphabet, DefaultStreams, 8, bounds)
			if err != nil {
				b.Fatal(err)
			}
			sched.PutBytes(blob)
		}
	})
}
