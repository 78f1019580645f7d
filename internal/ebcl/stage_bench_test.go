package ebcl_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/ebcl"
	"repro/internal/eblctest"
	"repro/internal/sched"
	"repro/internal/sz2"
)

// BenchmarkLosslessStage times the trailing stage alone, on SZ2's payload
// for weight-like data: at REL 1e-2 (an incompressible Huffman bitstream,
// which the keep rule no longer hands the stage: this is the parse it saves)
// and at REL 1e-1 (a bitstream at Huffman's one-bit floor, which the stage
// shrinks a lot). Throughput is in payload bytes.
func BenchmarkLosslessStage(b *testing.B) {
	rng := rand.New(rand.NewPCG(21, 22))
	data := eblctest.WeightLike(rng, 1<<20)
	for _, rel := range []float64{1e-2, 1e-1} {
		stream, err := sz2.NewCompressor().CompressAppend(nil, data, ebcl.Rel(rel))
		if err != nil {
			b.Fatal(err)
		}
		// The stage follows the common header (9) and the absolute bound
		// (8); reading it back gives the payload the codec handed it.
		staged := stream[17:]
		payload, _, err := ebcl.ReadLosslessStage(staged)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("append/rel=%g", rel), func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ReportMetric(float64(len(staged))/float64(len(payload)+1), "out/in")
			out := make([]byte, 0, len(payload)+1)
			for i := 0; i < b.N; i++ {
				out = ebcl.LosslessStageAt(append(append(out[:0], 0), payload...), 0)
			}
		})
		b.Run(fmt.Sprintf("read/rel=%g", rel), func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, pooled, err := ebcl.ReadLosslessStage(staged)
				if err != nil || len(got) != len(payload) {
					b.Fatalf("stage read: %d bytes, %v", len(got), err)
				}
				if pooled {
					sched.PutBytes(got)
				}
			}
		})
	}
}
