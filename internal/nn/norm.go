package nn

import (
	"math"

	"repro/internal/tensor"
)

// BatchNorm2D normalizes per channel over (N, H, W). Its running mean and
// variance buffers are exactly the non-trainable metadata that FedSZ's
// partitioner must route to the lossless path (paper §V-C), so this layer
// is load-bearing for the pipeline's realism, not just for accuracy.
type BatchNorm2D struct {
	Momentum float64
	Eps      float64

	Gamma, Beta     *Param // trainable scale/shift, [C]
	RunMean, RunVar *Param // running statistics, [C]
	NumBatches      *Param // scalar counter (PyTorch's num_batches_tracked)

	// Training caches.
	xhat       []float32
	mean, vstd []float64 // batch mean, 1/sqrt(var+eps)
}

// NewBatchNorm2D constructs the layer with gamma=1, beta=0, runVar=1.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	bn := &BatchNorm2D{
		Momentum: 0.1, Eps: 1e-5,
		Gamma:      &Param{Name: name + ".weight", Kind: tensor.KindWeight, Val: tensor.New(c), Grad: tensor.New(c)},
		Beta:       &Param{Name: name + ".bias", Kind: tensor.KindBias, Val: tensor.New(c), Grad: tensor.New(c)},
		RunMean:    &Param{Name: name + ".running_mean", Kind: tensor.KindRunningStat, Val: tensor.New(c)},
		RunVar:     &Param{Name: name + ".running_var", Kind: tensor.KindRunningStat, Val: tensor.New(c)},
		NumBatches: &Param{Name: name + ".num_batches_tracked", Kind: tensor.KindScalarMeta, Val: tensor.New(1)},
	}
	bn.Gamma.Val.Fill(1)
	bn.RunVar.Val.Fill(1)
	return bn
}

// Params implements Layer.
func (bn *BatchNorm2D) Params() []*Param {
	return []*Param{bn.Gamma, bn.Beta, bn.RunMean, bn.RunVar, bn.NumBatches}
}

// Forward implements Layer.
func (bn *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	plane := h * w
	y := tensor.New(x.Shape...)
	if !train {
		for ch := 0; ch < c; ch++ {
			m := float64(bn.RunMean.Val.Data[ch])
			inv := 1 / math.Sqrt(float64(bn.RunVar.Val.Data[ch])+bn.Eps)
			g, b := float64(bn.Gamma.Val.Data[ch]), float64(bn.Beta.Val.Data[ch])
			for s := 0; s < n; s++ {
				src := x.Data[(s*c+ch)*plane : (s*c+ch+1)*plane]
				dst := y.Data[(s*c+ch)*plane : (s*c+ch+1)*plane]
				for i, v := range src {
					dst[i] = float32((float64(v)-m)*inv*g + b)
				}
			}
		}
		return y
	}

	if cap(bn.xhat) < len(x.Data) {
		bn.xhat = make([]float32, len(x.Data))
	}
	bn.xhat = bn.xhat[:len(x.Data)]
	if bn.mean == nil {
		bn.mean = make([]float64, c)
		bn.vstd = make([]float64, c)
	}
	count := float64(n * plane)
	for ch := 0; ch < c; ch++ {
		var sum, sq float64
		for s := 0; s < n; s++ {
			src := x.Data[(s*c+ch)*plane : (s*c+ch+1)*plane]
			for _, v := range src {
				fv := float64(v)
				sum += fv
				sq += fv * fv
			}
		}
		m := sum / count
		variance := sq/count - m*m
		if variance < 0 {
			variance = 0
		}
		inv := 1 / math.Sqrt(variance+bn.Eps)
		bn.mean[ch], bn.vstd[ch] = m, inv
		g, b := float64(bn.Gamma.Val.Data[ch]), float64(bn.Beta.Val.Data[ch])
		for s := 0; s < n; s++ {
			base := (s*c + ch) * plane
			for i := 0; i < plane; i++ {
				xh := (float64(x.Data[base+i]) - m) * inv
				bn.xhat[base+i] = float32(xh)
				y.Data[base+i] = float32(xh*g + b)
			}
		}
		// Running statistics (unbiased variance, as PyTorch).
		unbiased := variance
		if count > 1 {
			unbiased = variance * count / (count - 1)
		}
		bn.RunMean.Val.Data[ch] = float32((1-bn.Momentum)*float64(bn.RunMean.Val.Data[ch]) + bn.Momentum*m)
		bn.RunVar.Val.Data[ch] = float32((1-bn.Momentum)*float64(bn.RunVar.Val.Data[ch]) + bn.Momentum*unbiased)
	}
	bn.NumBatches.Val.Data[0]++
	return y
}

// Backward implements Layer.
func (bn *BatchNorm2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := dy.Shape[0], dy.Shape[1], dy.Shape[2], dy.Shape[3]
	plane := h * w
	count := float64(n * plane)
	dx := tensor.New(dy.Shape...)
	for ch := 0; ch < c; ch++ {
		g := float64(bn.Gamma.Val.Data[ch])
		inv := bn.vstd[ch]
		var sumDy, sumDyXhat float64
		for s := 0; s < n; s++ {
			base := (s*c + ch) * plane
			for i := 0; i < plane; i++ {
				d := float64(dy.Data[base+i])
				sumDy += d
				sumDyXhat += d * float64(bn.xhat[base+i])
			}
		}
		bn.Beta.Grad.Data[ch] += float32(sumDy)
		bn.Gamma.Grad.Data[ch] += float32(sumDyXhat)
		for s := 0; s < n; s++ {
			base := (s*c + ch) * plane
			for i := 0; i < plane; i++ {
				d := float64(dy.Data[base+i])
				xh := float64(bn.xhat[base+i])
				dx.Data[base+i] = float32(g * inv / count * (count*d - sumDy - xh*sumDyXhat))
			}
		}
	}
	return dx
}
