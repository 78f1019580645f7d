package nn

import (
	"repro/internal/tensor"
)

// MaxPool2D applies k×k max pooling with stride k.
type MaxPool2D struct {
	K       int
	argmax  []int32
	inShape []int
}

// NewMaxPool2D constructs the layer.
func NewMaxPool2D(k int) *MaxPool2D { return &MaxPool2D{K: k} }

// Params implements Layer.
func (p *MaxPool2D) Params() []*Param { return nil }

// Forward implements Layer.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outH, outW := h/p.K, w/p.K
	y := tensor.New(n, c, outH, outW)
	if train {
		p.inShape = append([]int(nil), x.Shape...)
		if cap(p.argmax) < y.NumElems() {
			p.argmax = make([]int32, y.NumElems())
		}
		p.argmax = p.argmax[:y.NumElems()]
	}
	oi := 0
	for s := 0; s < n; s++ {
		for ch := 0; ch < c; ch++ {
			src := x.Data[(s*c+ch)*h*w:]
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					best := float32(0)
					bestIdx := int32(-1)
					for ky := 0; ky < p.K; ky++ {
						for kx := 0; kx < p.K; kx++ {
							idx := (oy*p.K+ky)*w + ox*p.K + kx
							if bestIdx < 0 || src[idx] > best {
								best = src[idx]
								bestIdx = int32(idx)
							}
						}
					}
					y.Data[oi] = best
					if train {
						p.argmax[oi] = int32((s*c+ch)*h*w) + bestIdx
					}
					oi++
				}
			}
		}
	}
	return y
}

// Backward implements Layer.
func (p *MaxPool2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(p.inShape...)
	for i, v := range dy.Data {
		dx.Data[p.argmax[i]] += v
	}
	return dx
}

// GlobalAvgPool averages each channel's spatial plane, producing [N, C].
type GlobalAvgPool struct {
	inShape []int
}

// NewGlobalAvgPool constructs the layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Params implements Layer.
func (p *GlobalAvgPool) Params() []*Param { return nil }

// Forward implements Layer.
func (p *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	plane := h * w
	if train {
		p.inShape = append([]int(nil), x.Shape...)
	}
	y := tensor.New(n, c)
	inv := 1 / float32(plane)
	for s := 0; s < n; s++ {
		for ch := 0; ch < c; ch++ {
			src := x.Data[(s*c+ch)*plane : (s*c+ch+1)*plane]
			var sum float32
			for _, v := range src {
				sum += v
			}
			y.Data[s*c+ch] = sum * inv
		}
	}
	return y
}

// Backward implements Layer.
func (p *GlobalAvgPool) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := p.inShape[0], p.inShape[1], p.inShape[2], p.inShape[3]
	plane := h * w
	dx := tensor.New(p.inShape...)
	inv := 1 / float32(plane)
	for s := 0; s < n; s++ {
		for ch := 0; ch < c; ch++ {
			g := dy.Data[s*c+ch] * inv
			dst := dx.Data[(s*c+ch)*plane : (s*c+ch+1)*plane]
			for i := range dst {
				dst[i] = g
			}
		}
	}
	return dx
}
