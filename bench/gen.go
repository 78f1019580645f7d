package main

// Seeded input generation. -seed is the only source of randomness: every
// value below comes from a PCG stream keyed by (seed, stream constant), so
// the same seed gives byte-identical inputs in every run and process. The
// program under test receives only what is generated here.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/tensor"
)

// modelSpec is the shape of one generated state dict: the weight tensors'
// element counts and the Laplace scale of their values.
type modelSpec struct {
	name   string
	layers []int   // weight elements per layer
	scale  float64 // Laplace scale b of the weights (paper Fig 3: peaked at 0, inside ±1)
}

// alexNetWeights are the real AlexNet weight-tensor sizes (conv1–5, fc6–8);
// alexnetSkew keeps their proportions, so one fully connected layer holds
// ~62 % of the model — the skew the v4 chunk fan-out exists for.
var alexNetWeights = []int{34848, 307200, 884736, 663552, 442368, 37748736, 16777216, 4096000}

func alexnetSkew(params int) modelSpec {
	total := 0
	for _, n := range alexNetWeights {
		total += n
	}
	layers := make([]int, len(alexNetWeights))
	for i, n := range alexNetWeights {
		layers[i] = max(64, int(float64(n)*float64(params)/float64(total)))
	}
	return modelSpec{name: "alexnet_skew", layers: layers, scale: 0.012}
}

// evenModel is 12 equal layers: nothing chunks, per-tensor fan-out balances.
func evenModel(name string, params int, scale float64) modelSpec {
	layers := make([]int, 12)
	for i := range layers {
		layers[i] = max(64, params/len(layers))
	}
	return modelSpec{name: name, layers: layers, scale: scale}
}

func mobilenetEven(params int) modelSpec { return evenModel("mobilenet_even", params, 0.06) }
func tinyEven(params int) modelSpec      { return evenModel("tiny_even", params, 0.06) }

// clipScales is where the Laplace tail is cut, in units of the scale b; with
// the scales used here the cut stays inside ±1.
const clipScales = 12

// laplace draws from Laplace(0, b) clamped to ±clipScales·b.
func laplace(rng *rand.Rand, b float64) float32 {
	u := rng.Float64() - 0.5
	v := -b * math.Log(1-2*math.Abs(u))
	if u < 0 {
		v = -v
	}
	return float32(max(-clipScales*b, min(clipScales*b, v)))
}

// pinRange puts one element of every weight tensor at either cut of a
// Laplace(0, b) draw. A tensor's value range is otherwise the difference of
// two extreme-value statistics and moves by several percent from seed to
// seed, and with it the absolute bound REL 1e-2 resolves to and the bytes on
// the wire. Pinned, a seed varies the samples and not the codec's operating
// point, so wire_bytes_per_update can be held to a tight bound across seeds.
func pinRange(sd *tensor.StateDict, b float64) *tensor.StateDict {
	for _, e := range sd.Entries() {
		if e.Kind == tensor.KindWeight {
			e.Tensor.Data[0] = float32(-clipScales * b)
			e.Tensor.Data[len(e.Tensor.Data)-1] = float32(clipScales * b)
		}
	}
	return sd
}

func fill(n int, f func() float32) *tensor.Tensor {
	t := tensor.New(n)
	for j := range t.Data {
		t.Data[j] = f()
	}
	return t
}

// genDict builds one state dict of spec: per layer a weight tensor (the
// lossy partition, values drawn from weight) plus a bias, batch-norm
// running statistics and a step counter (the lossless metadata partition).
// client varies the counter so the metadata mean is not trivially one
// client's value.
func genDict(rng *rand.Rand, spec modelSpec, client int, weight func() float32) *tensor.StateDict {
	sd := tensor.NewStateDict()
	for i, n := range spec.layers {
		side := max(4, int(math.Sqrt(float64(n))))
		p := fmt.Sprintf("layer%02d.", i)
		sd.Add(p+"weight", tensor.KindWeight, fill(n, weight))
		sd.Add(p+"bias", tensor.KindBias, fill(side, func() float32 { return laplace(rng, spec.scale) }))
		sd.Add(p+"bn.running_mean", tensor.KindRunningStat, fill(side, func() float32 { return laplace(rng, 0.1) }))
		sd.Add(p+"bn.running_var", tensor.KindRunningStat, fill(side, func() float32 { return 1 + float32(math.Abs(float64(laplace(rng, 0.1)))) }))
		sd.Add(p+"bn.num_batches_tracked", tensor.KindScalarMeta, tensor.FromData([]float32{float32(100 + client)}, 1))
	}
	return sd
}

// Stream constants separating the PCG streams of one seed.
const (
	streamDicts = 0x6469637473 // client dicts
	streamDelta = 0x64656c7461 // delta trajectory
)

// genClients builds k independent client dicts of spec.
func genClients(seed uint64, spec modelSpec, k int) []*tensor.StateDict {
	rng := rand.New(rand.NewPCG(seed, streamDicts))
	out := make([]*tensor.StateDict, k)
	for i := range out {
		out[i] = pinRange(genDict(rng, spec, i, func() float32 { return laplace(rng, spec.scale) }), spec.scale)
	}
	return out
}

// deltaNoiseScale is the per-tensor client-noise amplitude s_t of the delta
// trajectory, small against the weight range so the residual wins.
func deltaNoiseScale(entry int) float32 {
	return float32(0.6e-3 * float64(1+entry%4))
}

// diverged marks the entries (every 6th) whose client tensor is the global's
// negation plus noise: the residual is then twice as wide as the data, the
// delta policy's range test rejects it, and the section stays absolute — so
// both outcomes of the policy occur in every update.
func diverged(entry int) bool { return entry%6 == 5 }

// trajectory is the fixed multi-round input of the delta workload: global
// G_r = G_0 + (r mod period)·D, and client i's update at round r is
// G_r + s_t·N_{(i+r) mod len(noise)} with N standard normal (−G_r + s_t·N on
// diverged entries). The server's mean is verified and never fed back, so
// the inputs do not depend on the program under test.
type trajectory struct {
	g0, drift *tensor.StateDict
	noise     []*tensor.StateDict
}

// trajectoryPeriod bounds the drift so long runs revisit the same globals.
const trajectoryPeriod = 8

func genTrajectory(seed uint64, spec modelSpec) *trajectory {
	rng := rand.New(rand.NewPCG(seed, streamDelta))
	tr := &trajectory{
		g0:    pinRange(genDict(rng, spec, 0, func() float32 { return laplace(rng, spec.scale) }), spec.scale),
		drift: pinRange(genDict(rng, spec, 0, func() float32 { return laplace(rng, spec.scale*0.02) }), spec.scale*0.02),
	}
	for i := 0; i < 4; i++ {
		tr.noise = append(tr.noise, genDict(rng, spec, 0, func() float32 { return float32(rng.NormFloat64()) }))
	}
	return tr
}

// globalInto writes G_r into dst (allocated when nil).
func (tr *trajectory) globalInto(dst *tensor.StateDict, r int) *tensor.StateDict {
	if dst == nil {
		dst = tr.g0.Zero()
	}
	step := float32(r % trajectoryPeriod)
	for i, e := range dst.Entries() {
		g, d := tr.g0.Entries()[i].Tensor.Data, tr.drift.Entries()[i].Tensor.Data
		if e.Kind != tensor.KindWeight {
			copy(e.Tensor.Data, g)
			continue
		}
		for j := range e.Tensor.Data {
			e.Tensor.Data[j] = g[j] + step*d[j]
		}
	}
	return dst
}

// updateInto writes client i's round-r update into dst (allocated when nil),
// given that round's global.
func (tr *trajectory) updateInto(dst, global *tensor.StateDict, client, r int) *tensor.StateDict {
	if dst == nil {
		dst = tr.g0.Zero()
	}
	noise := tr.noise[(client+r)%len(tr.noise)]
	for i, e := range dst.Entries() {
		g := global.Entries()[i].Tensor.Data
		if e.Kind != tensor.KindWeight {
			copy(e.Tensor.Data, g)
			if e.Kind == tensor.KindScalarMeta {
				e.Tensor.Data[0] += float32(client)
			}
			continue
		}
		s, n := deltaNoiseScale(i), noise.Entries()[i].Tensor.Data
		sign := float32(1)
		if diverged(i) {
			sign = -1
		}
		for j := range e.Tensor.Data {
			e.Tensor.Data[j] = sign*g[j] + s*n[j]
		}
	}
	return dst
}

// inputHash is the SHA-256, over names, kinds and the raw float32 bits,
// printed with every run, so two runs can be shown to have measured the same
// inputs.
func inputHash(dicts ...*tensor.StateDict) string {
	h := sha256.New()
	var buf [4096]byte
	for _, sd := range dicts {
		for _, e := range sd.Entries() {
			h.Write([]byte(e.Name))
			h.Write([]byte{byte(e.Kind)})
			data := e.Tensor.Data
			for len(data) > 0 {
				n := min(len(data), len(buf)/4)
				for j, v := range data[:n] {
					binary.LittleEndian.PutUint32(buf[4*j:], math.Float32bits(v))
				}
				h.Write(buf[:4*n])
				data = data[n:]
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
