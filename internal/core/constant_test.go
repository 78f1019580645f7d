package core_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/lanes"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// TestConstantResidualGate builds residuals by hand whose span sits at
// encodeBlob's constant-residual gate — exactly 2·ebRes, one float32 ulp under
// it and one ulp over — and checks that only the first two ship as the 13-byte
// constant stream (one plain blob, also where the tensor would chunk), that
// the third is a codec-encoded residual, and that the bound holds on all three
// through DecompressWith and through agg.Sharded.IngestStream. It runs on the
// lane kernels and on the Go loops.
func TestConstantResidualGate(t *testing.T) {
	const n, big = 4096, 2
	rng := rand.New(rand.NewPCG(32, 1))
	ref := make([]float32, n)
	for i := range ref {
		ref[i] = float32(max(-1, min(1, 0.1*(rng.ExpFloat64()-rng.ExpFloat64()))))
	}
	u := make([]float64, n) // each residual's place in the span
	for i := range u {
		u[i] = 0.1 + 0.8*rng.Float64()
	}
	// residual returns data whose residual against ref spans exactly [0, h]
	// and whose largest magnitude is big whatever h is: element 0 is big − big,
	// element 1 is h − 0, and every other one lands well inside.
	ref[0], ref[1] = big, 0
	residual := func(h float32) []float32 {
		data := make([]float32, n)
		for i := range data {
			data[i] = ref[i] + float32(u[i])*h
		}
		data[0], data[1] = big, h
		return data
	}
	// So mag is big + h, and the ABS bound eb puts the gate exactly at atGate
	// when 2·ebRes(eb, big + atGate) == atGate: solve ebRes = eb − (mag + eb)·c
	// for eb, then step it by float64 ulps until the equality is exact.
	const atGate = float32(2e-3)
	c := (1 + 1.0/(1<<20)) / (1 << 24)
	eb := (float64(atGate) + 2*c*(big+float64(atGate))) / (2 - 2*c)
	for k := 0; ; k++ {
		ebRes, _ := core.ResidualBound(eb, big+float64(atGate))
		if 2*ebRes == float64(atGate) {
			break
		}
		if k == 1000 {
			t.Fatalf("no ABS bound puts the gate exactly at %g", atGate)
		}
		toward := math.Inf(1)
		if 2*ebRes > float64(atGate) {
			toward = math.Inf(-1)
		}
		eb = math.Nextafter(eb, toward)
	}
	spans := []struct {
		name     string
		h        float32
		constant bool
	}{
		{"at the gate", atGate, true},
		{"one ulp under", math.Nextafter32(atGate, 0), true},
		{"one ulp over", math.Nextafter32(atGate, 1), false},
	}
	refSD := tensor.NewStateDict()
	refSD.Add("w", tensor.KindWeight, tensor.FromData(ref, n))
	dopts := core.DecodeOptions{Reference: refSD, RefEpoch: 1}

	lanes.BothPaths(func(path string) {
		for _, sp := range spans {
			for _, chunkElems := range []int{-1, 1024} {
				name := fmt.Sprintf("%s: %s, ChunkElems %d", path, sp.name, chunkElems)
				data := residual(sp.h)
				sd := tensor.NewStateDict()
				sd.Add("w", tensor.KindWeight, tensor.FromData(data, n))
				stream, stats, err := core.Compress(sd, core.Options{
					LossyParams: ebcl.Abs(eb), ChunkElems: chunkElems, Reference: refSD, RefEpoch: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				wantChunked := 0
				if !sp.constant && chunkElems > 0 {
					wantChunked = 1
				}
				if stats.DeltaTensors != 1 || (stats.ConstantResiduals == 1) != sp.constant || stats.ChunkedTensors != wantChunked {
					t.Errorf("%s: %d residual, %d constant, %d chunked; want 1, constant %v, %d chunked",
						name, stats.DeltaTensors, stats.ConstantResiduals, stats.ChunkedTensors, sp.constant, wantChunked)
				}
				if sp.constant && stats.LossyCompressed != 13 {
					t.Errorf("%s: constant residual blob is %d B, want 13", name, stats.LossyCompressed)
				}

				got, _, err := core.DecompressWith(context.Background(), nil, stream, dopts)
				if err != nil {
					t.Fatal(err)
				}
				var framed bytes.Buffer
				if err := wire.NewWriter(&framed).WriteStream(stream); err != nil {
					t.Fatal(err)
				}
				sh := agg.New(agg.Config{})
				if _, _, err := sh.IngestStream(context.Background(), 1, 1, dopts, &framed); err != nil {
					t.Fatal(err)
				}
				mean, _ := sh.Mean()
				for via, out := range map[string][]float32{"DecompressWith": got.Get("w").Data, "IngestStream": mean.Get("w").Data} {
					if e := ebcl.MaxAbsError(data, out); e > eb {
						t.Errorf("%s: %s max error %g exceeds bound %g", name, via, e, eb)
					}
				}
				core.Release(mean)
			}
		}
	})
}
