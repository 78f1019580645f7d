// Package dataset synthesizes the image-classification workloads of the
// FedSZ evaluation. The real CIFAR-10 / Fashion-MNIST / Caltech101 corpora
// are not available offline, so each is replaced by a class-prototype
// generator with the same input dimensions and class counts (paper Table
// IV): every class owns a smooth random pattern, and samples are noisy,
// gain-jittered draws around it. The resulting task is genuinely learnable
// by convolutional networks, which is all the paper's accuracy experiments
// require (convergence behaviour with and without compression noise).
package dataset

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/tensor"
)

// Spec describes a dataset at paper scale (Table IV).
type Spec struct {
	Name       string
	Channels   int
	Height     int
	Width      int
	Classes    int
	NumSamples int // paper-reported corpus size
}

// Specs returns the three paper datasets in Table IV order.
func Specs() []Spec {
	return []Spec{
		{Name: "cifar10", Channels: 3, Height: 32, Width: 32, Classes: 10, NumSamples: 60000},
		{Name: "fmnist", Channels: 1, Height: 28, Width: 28, Classes: 10, NumSamples: 70000},
		{Name: "caltech101", Channels: 3, Height: 224, Width: 224, Classes: 101, NumSamples: 9000},
	}
}

// SpecFor returns the spec for a dataset name.
func SpecFor(name string) (Spec, error) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dataset: unknown dataset %q", name)
}

// Config controls synthesis. Height/Width may be scaled down from the paper
// spec to keep pure-Go training tractable; the experiments document the
// scale they use.
type Config struct {
	Spec
	TrainN int
	TestN  int
	Seed   uint64
}

// ScaledConfig returns a training-tractable configuration for the named
// dataset: images capped at maxSide pixels, with trainN/testN samples.
func ScaledConfig(name string, maxSide, trainN, testN int, seed uint64) (Config, error) {
	spec, err := SpecFor(name)
	if err != nil {
		return Config{}, err
	}
	if spec.Height > maxSide {
		spec.Height = maxSide
	}
	if spec.Width > maxSide {
		spec.Width = maxSide
	}
	return Config{Spec: spec, TrainN: trainN, TestN: testN, Seed: seed}, nil
}

// Dataset is an in-memory labelled image set.
type Dataset struct {
	Spec   Spec
	X      *tensor.Tensor // [N, C, H, W]
	Labels []int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Labels) }

// Batch copies samples [lo,hi) into a fresh tensor (and label slice), the
// unit of work for one SGD step.
func (d *Dataset) Batch(lo, hi int) (*tensor.Tensor, []int) {
	c, h, w := d.Spec.Channels, d.Spec.Height, d.Spec.Width
	n := hi - lo
	x := tensor.New(n, c, h, w)
	copy(x.Data, d.X.Data[lo*c*h*w:hi*c*h*w])
	return x, d.Labels[lo:hi]
}

// Generate synthesizes train and test sets that share class prototypes.
func Generate(cfg Config) (train, test *Dataset) {
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xDA7A))
	protos := makePrototypes(rng, cfg.Spec)
	train = sample(rng, cfg.Spec, protos, cfg.TrainN)
	test = sample(rng, cfg.Spec, protos, cfg.TestN)
	return train, test
}

// makePrototypes builds one smooth pattern per class and channel: a sum of
// a few random low-frequency plane waves, normalized to ±1.
func makePrototypes(rng *rand.Rand, spec Spec) []float32 {
	c, h, w := spec.Channels, spec.Height, spec.Width
	protos := make([]float32, spec.Classes*c*h*w)
	for cl := 0; cl < spec.Classes; cl++ {
		for ch := 0; ch < c; ch++ {
			base := (cl*c + ch) * h * w
			type wave struct{ fx, fy, phase, amp float64 }
			waves := make([]wave, 4)
			for i := range waves {
				waves[i] = wave{
					fx:    float64(rng.IntN(4) + 1),
					fy:    float64(rng.IntN(4) + 1),
					phase: rng.Float64() * 2 * math.Pi,
					amp:   0.4 + 0.6*rng.Float64(),
				}
			}
			var maxAbs float64
			vals := make([]float64, h*w)
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					var v float64
					for _, wv := range waves {
						v += wv.amp * math.Sin(2*math.Pi*(wv.fx*float64(x)/float64(w)+wv.fy*float64(y)/float64(h))+wv.phase)
					}
					vals[y*w+x] = v
					if a := math.Abs(v); a > maxAbs {
						maxAbs = a
					}
				}
			}
			if maxAbs == 0 {
				maxAbs = 1
			}
			for i, v := range vals {
				protos[base+i] = float32(v / maxAbs)
			}
		}
	}
	return protos
}

// sample draws n labelled images: prototype × gain + Gaussian noise.
func sample(rng *rand.Rand, spec Spec, protos []float32, n int) *Dataset {
	c, h, w := spec.Channels, spec.Height, spec.Width
	plane := c * h * w
	x := tensor.New(n, c, h, w)
	labels := make([]int, n)
	for s := 0; s < n; s++ {
		cl := rng.IntN(spec.Classes)
		labels[s] = cl
		gain := float32(0.7 + 0.6*rng.Float64())
		src := protos[cl*plane : (cl+1)*plane]
		dst := x.Data[s*plane : (s+1)*plane]
		for i := range dst {
			dst[i] = gain*src[i] + float32(0.35*rng.NormFloat64())
		}
	}
	return &Dataset{Spec: spec, X: x, Labels: labels}
}

// ShardIID splits a dataset into nClients equal IID shards (the paper uses
// IID FedAvg with four clients).
func ShardIID(d *Dataset, nClients int, seed uint64) []*Dataset {
	rng := rand.New(rand.NewPCG(seed, 0x5A4D))
	n := d.Len()
	perm := rng.Perm(n)
	per := n / nClients
	c, h, w := d.Spec.Channels, d.Spec.Height, d.Spec.Width
	plane := c * h * w
	out := make([]*Dataset, nClients)
	for cl := 0; cl < nClients; cl++ {
		x := tensor.New(per, c, h, w)
		labels := make([]int, per)
		for i := 0; i < per; i++ {
			src := perm[cl*per+i]
			copy(x.Data[i*plane:(i+1)*plane], d.X.Data[src*plane:(src+1)*plane])
			labels[i] = d.Labels[src]
		}
		out[cl] = &Dataset{Spec: d.Spec, X: x, Labels: labels}
	}
	return out
}
