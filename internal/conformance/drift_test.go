package conformance

// Multi-round delta drift conformance: the cross-round residual format must
// not let error accumulate. Each round encodes against the *reconstructed*
// previous global — the dict both ends actually share — so the error on
// round t's data is exactly round t's encoding error, independent of how
// many delta rounds preceded it. driftGrowthFactor documents the slack the
// suite allows on top of the per-round bound; holding it at 1 (strict
// codecs) is the no-accumulation guarantee itself.

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/compressors"
	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/eblctest"
	"repro/internal/tensor"
)

// driftGrowthFactor is the documented multi-round error budget: after K
// delta rounds the reconstruction error on round K's data must stay within
// per-round bound × this factor. The reference chain is exact at both ends,
// so no growth is expected for strict codecs; zfp additionally carries its
// usual loose factor from the conformance traits table.
const driftGrowthFactor = 1.0

// driftRounds is K: enough rounds that naive accumulation (error ∝ K)
// would overshoot the budget several times over.
const driftRounds = 8

// driftDict builds the round-0 global: two lossy weights and a lossless
// bias, the standard partition mix.
func driftDict(rng *rand.Rand) *tensor.StateDict {
	sd := tensor.NewStateDict()
	sd.Add("conv.weight", tensor.KindWeight, tensor.FromData(eblctest.WeightLike(rng, 4096), 64, 64))
	sd.Add("fc.weight", tensor.KindWeight, tensor.FromData(eblctest.WeightLike(rng, 2048), 2048))
	b := tensor.New(64)
	for i := range b.Data {
		b.Data[i] = float32(0.01 * rng.NormFloat64())
	}
	sd.Add("fc.bias", tensor.KindBias, b)
	return sd
}

// drift perturbs sd in place the way a round of local SGD would: a small
// step around the current value, keeping rounds temporally correlated.
func drift(sd *tensor.StateDict, rng *rand.Rand, scale float64) {
	for _, e := range sd.Entries() {
		for i := range e.Tensor.Data {
			e.Tensor.Data[i] += float32(scale * rng.NormFloat64())
		}
	}
}

func TestDeltaMultiRoundDrift(t *testing.T) {
	params := []struct {
		name string
		p    ebcl.Params
	}{
		{"REL1e-2", ebcl.Rel(1e-2)},
		{"ABS1e-3", ebcl.Abs(1e-3)},
	}
	for _, lossyName := range compressors.Names() {
		tr, ok := traits[lossyName]
		if !ok {
			t.Fatalf("no traits for compressor %q", lossyName)
		}
		for _, pp := range params {
			t.Run(lossyName+"/"+pp.name, func(t *testing.T) {
				bothPaths(t, func() {
					lossy, err := compressors.Get(lossyName)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewPCG(4242, uint64(len(lossyName))))
					truth := driftDict(rng)

					// shared is the reference chain: the reconstruction both
					// ends hold after each round, seeded by an absolute round 0.
					opts := core.Options{Lossy: lossy, LossyParams: pp.p}
					stream, _, err := core.Compress(truth, opts)
					if err != nil {
						t.Fatal(err)
					}
					shared, _, err := core.Decompress(stream)
					if err != nil {
						t.Fatal(err)
					}

					deltaRounds := 0
					for round := 1; round <= driftRounds; round++ {
						drift(truth, rng, 1e-3)
						epoch := uint32(round)
						dOpts := opts
						dOpts.Reference, dOpts.RefEpoch = shared, epoch
						stream, stats, err := core.Compress(truth, dOpts)
						if err != nil {
							t.Fatalf("round %d: %v", round, err)
						}
						if stream[4] != 3 {
							t.Fatalf("round %d: stream version %d, want 3", round, stream[4])
						}
						deltaRounds += stats.DeltaTensors
						recon, dstats, err := core.DecompressWith(t.Context(), nil, stream,
							core.DecodeOptions{Reference: shared, RefEpoch: epoch})
						if err != nil {
							t.Fatalf("round %d: %v", round, err)
						}
						if dstats.DeltaTensors != stats.DeltaTensors {
							t.Fatalf("round %d: decoder saw %d delta tensors, encoder emitted %d",
								round, dstats.DeltaTensors, stats.DeltaTensors)
						}

						// The drift contract: round K's reconstruction error vs
						// round K's data is one round's bound, not K rounds'.
						for i, e := range truth.Entries() {
							g := recon.Entries()[i]
							if e.Kind != tensor.KindWeight || e.Tensor.NumElems() <= core.DefaultThreshold {
								continue
							}
							ebAbs, err := ebcl.ResolveAbs(e.Tensor.Data, pp.p)
							if err != nil {
								t.Fatal(err)
							}
							limit := ebAbs * driftGrowthFactor
							if !tr.strictBound {
								limit = ebAbs * tr.looseFactor
							}
							for j := range e.Tensor.Data {
								d := math.Abs(float64(e.Tensor.Data[j]) - float64(g.Tensor.Data[j]))
								if d > limit*(1+1e-6)+1e-12 {
									t.Fatalf("round %d entry %q: error %g exceeds %g at %d — delta error accumulated",
										round, e.Name, d, limit, j)
								}
							}
						}
						shared = recon
					}
					// The rounds are tightly correlated (drift ≪ value range),
					// so for the strict codecs — whose output size tracks the
					// value range — the residual encoding must actually have
					// engaged, or the suite silently tests the absolute path.
					// zfp's size is rate-driven, so its residual sections may
					// legitimately never win; the per-tensor fallback covers it.
					if deltaRounds == 0 && tr.strictBound {
						t.Fatal("no tensor ever took the residual path across all rounds")
					}
				})
			})
		}
	}
}

// TestDeltaEpochMismatch: a residual stream presented with the wrong epoch
// or no reference must fail with ErrReference — the renegotiation sentinel
// — and never decode against the wrong baseline.
func TestDeltaEpochMismatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	ref := driftDict(rng)
	data := ref.Clone()
	drift(data, rng, 1e-3)
	opts := core.Options{}
	opts.Reference, opts.RefEpoch = ref, 5
	stream, stats, err := core.Compress(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeltaTensors == 0 {
		t.Fatal("correlated dict produced no residual sections")
	}
	if _, _, err := core.DecompressWith(t.Context(), nil, stream,
		core.DecodeOptions{Reference: ref, RefEpoch: 6}); !errors.Is(err, core.ErrReference) {
		t.Fatalf("epoch mismatch: %v, want ErrReference", err)
	}
	if _, _, err := core.DecompressWith(t.Context(), nil, stream,
		core.DecodeOptions{}); !errors.Is(err, core.ErrReference) {
		t.Fatalf("missing reference: %v, want ErrReference", err)
	}
	// The matching epoch decodes fine.
	if _, _, err := core.DecompressWith(t.Context(), nil, stream,
		core.DecodeOptions{Reference: ref, RefEpoch: 5}); err != nil {
		t.Fatal(err)
	}
}
