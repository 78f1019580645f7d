package nn

import (
	"repro/internal/tensor"
)

// ReLU applies max(0, x); with Cap > 0 it becomes a capped ReLU (ReLU6 for
// Cap = 6, the MobileNetV2 activation).
type ReLU struct {
	Cap  float32
	mask []bool
}

// NewReLU constructs an uncapped ReLU.
func NewReLU() *ReLU { return &ReLU{} }

// NewReLU6 constructs the capped variant used by MobileNetV2.
func NewReLU6() *ReLU { return &ReLU{Cap: 6} }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := tensor.New(x.Shape...)
	if train {
		if cap(r.mask) < len(x.Data) {
			r.mask = make([]bool, len(x.Data))
		}
		r.mask = r.mask[:len(x.Data)]
	}
	for i, v := range x.Data {
		pass := v > 0 && (r.Cap == 0 || v < r.Cap)
		switch {
		case v <= 0:
			y.Data[i] = 0
		case r.Cap > 0 && v >= r.Cap:
			y.Data[i] = r.Cap
		default:
			y.Data[i] = v
		}
		if train {
			r.mask[i] = pass
		}
	}
	return y
}

// Backward implements Layer.
func (r *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(dy.Shape...)
	for i, v := range dy.Data {
		if r.mask[i] {
			dx.Data[i] = v
		}
	}
	return dx
}
