package nn

import (
	"repro/internal/tensor"
)

// Residual wraps an inner layer stack with a skip connection:
// y = body(x) + skip(x). skip is nil for an identity shortcut (shapes must
// match) or a projection stack (1×1 conv [+ BN]) when they don't — the
// ResNet basic-block and MobileNetV2 inverted-residual pattern.
type Residual struct {
	Body []Layer
	Skip []Layer
}

// NewResidual constructs the block. Pass skip == nil for identity.
func NewResidual(body []Layer, skip []Layer) *Residual {
	return &Residual{Body: body, Skip: skip}
}

// Params implements Layer.
func (r *Residual) Params() []*Param {
	var out []*Param
	for _, l := range r.Body {
		out = append(out, l.Params()...)
	}
	for _, l := range r.Skip {
		out = append(out, l.Params()...)
	}
	return out
}

// Forward implements Layer.
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := x
	for _, l := range r.Body {
		y = l.Forward(y, train)
	}
	s := x
	for _, l := range r.Skip {
		s = l.Forward(s, train)
	}
	out := tensor.New(y.Shape...)
	for i := range out.Data {
		out.Data[i] = y.Data[i] + s.Data[i]
	}
	return out
}

// Backward implements Layer.
func (r *Residual) Backward(dy *tensor.Tensor) *tensor.Tensor {
	db := dy
	for i := len(r.Body) - 1; i >= 0; i-- {
		db = r.Body[i].Backward(db)
	}
	ds := dy
	for i := len(r.Skip) - 1; i >= 0; i-- {
		ds = r.Skip[i].Backward(ds)
	}
	dx := tensor.New(db.Shape...)
	for i := range dx.Data {
		dx.Data[i] = db.Data[i] + ds.Data[i]
	}
	return dx
}
