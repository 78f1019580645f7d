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

// fuzzSeeds builds a deterministic corpus: a valid framed stream plus
// truncations, bit flips, and targeted header damage.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	rng := rand.New(rand.NewPCG(201, 202))
	sd := tensor.NewStateDict()
	w := tensor.FromData(eblctest.WeightLike(rng, 4096), 4096)
	sd.Add("w.weight", tensor.KindWeight, w)
	b := tensor.New(16)
	sd.Add("w.bias", tensor.KindBias, b)
	stream, _, err := core.Compress(sd, core.Options{LossyParams: ebcl.Rel(1e-2)})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteStream(stream); err != nil {
		tb.Fatal(err)
	}
	framed := buf.Bytes()

	seeds := [][]byte{append([]byte(nil), framed...)}
	step := len(framed)/40 + 1
	for l := 0; l < len(framed); l += step {
		seeds = append(seeds, append([]byte(nil), framed[:l]...))
	}
	for trial := 0; trial < 32; trial++ {
		bad := append([]byte(nil), framed...)
		for f := 0; f < rng.IntN(3)+1; f++ {
			bad[rng.IntN(len(bad))] ^= byte(rng.IntN(255) + 1)
		}
		seeds = append(seeds, bad)
	}
	// Targeted damage: magic, version, first frame kind, first length byte.
	for _, off := range []int{0, 4, 5, 6} {
		bad := append([]byte(nil), framed...)
		bad[off] ^= 0xFF
		seeds = append(seeds, bad)
	}
	return seeds
}

// TestWireReaderCorpus asserts every seed either reads to a clean EOF (the
// pristine stream) or fails wrapping core.ErrCorrupt — never panics.
func TestWireReaderCorpus(t *testing.T) {
	for i, seed := range fuzzSeeds(t) {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("seed %d: reader panicked: %v", i, r)
				}
			}()
			_, err := io.ReadAll(NewReader(bytes.NewReader(seed)))
			if err != nil && !errors.Is(err, core.ErrCorrupt) {
				t.Errorf("seed %d: error %v does not wrap core.ErrCorrupt", i, err)
			}
		}()
	}
}

// FuzzWireReader drives the de-framer with arbitrary bytes. Invariants: no
// panic, no hang (allocation is bounded by input length, so ReadAll
// terminates), and any error wraps core.ErrCorrupt. The same bytes also go
// through the streaming decode — SectionSource into core.DecodeSections —
// which must fail cleanly or succeed (the fuzzer can forge valid framing
// around a valid payload); when it succeeds, the Reader's payload decodes
// in memory to the same bits.
func FuzzWireReader(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ctx := context.Background()
		d, _, derr := core.DecodeSections(ctx, sched.Default(), NewSectionSource(ctx, bytes.NewReader(data)), core.DecodeOptions{})
		if derr == nil && d == nil {
			t.Fatal("nil stream with nil error")
		}
		r := NewReader(bytes.NewReader(data))
		payload, err := io.ReadAll(r)
		if err != nil {
			if !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("error %v does not wrap core.ErrCorrupt", err)
			}
			if derr == nil {
				t.Fatalf("the Reader refused a stream the section source decoded: %v", err)
			}
			return
		}
		mem, _, merr := core.Decompress(payload)
		if derr == nil {
			if merr != nil {
				t.Fatalf("the payload of a stream that decoded streaming fails in memory: %v", merr)
			}
			if !bytes.Equal(d.StateDict().Marshal(), mem.Marshal()) {
				t.Fatal("streaming and in-memory decodes differ")
			}
		}
	})
}
