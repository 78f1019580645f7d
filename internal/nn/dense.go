package nn

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/tensor"
)

// Dense is a fully connected layer y = x·Wᵀ + b over [N, In] inputs.
type Dense struct {
	name    string
	In, Out int
	W       *Param // [Out, In]
	B       *Param // [Out]
	x       *tensor.Tensor
}

// NewDense constructs the layer with Xavier-uniform weights.
func NewDense(rng *rand.Rand, name string, in, out int) *Dense {
	w := tensor.New(out, in)
	XavierDense(rng, w)
	return &Dense{
		name: name, In: in, Out: out,
		W: &Param{Name: name + ".weight", Kind: tensor.KindWeight, Val: w, Grad: tensor.New(out, in)},
		B: &Param{Name: name + ".bias", Kind: tensor.KindBias, Val: tensor.New(out), Grad: tensor.New(out)},
	}
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Shape[0]
	if x.NumElems()/n != d.In {
		panic(fmt.Sprintf("%s: input features %d != %d", d.name, x.NumElems()/n, d.In))
	}
	if train {
		d.x = x
	}
	y := tensor.New(n, d.Out)
	// y = x · Wᵀ : [n,In]·[In,Out] with B stored as [Out,In].
	GemmTB(x.Data, n, d.In, d.W.Val.Data, d.Out, y.Data, false)
	for s := 0; s < n; s++ {
		row := y.Data[s*d.Out : (s+1)*d.Out]
		for j := range row {
			row[j] += d.B.Val.Data[j]
		}
	}
	return y
}

// Backward implements Layer.
func (d *Dense) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n := dy.Shape[0]
	// dW += dyᵀ · x : [Out,n]·[n,In]
	GemmTA(dy.Data, n, d.Out, d.x.Data, d.In, d.W.Grad.Data, true)
	// db += column sums of dy.
	for s := 0; s < n; s++ {
		row := dy.Data[s*d.Out : (s+1)*d.Out]
		for j, v := range row {
			d.B.Grad.Data[j] += v
		}
	}
	// dx = dy · W : [n,Out]·[Out,In]
	dx := tensor.New(n, d.In)
	Gemm(dy.Data, n, d.Out, d.W.Val.Data, d.In, dx.Data)
	return dx
}

// Flatten reshapes [N, C, H, W] to [N, C·H·W]; it is shape bookkeeping only.
type Flatten struct {
	inShape []int
}

// NewFlatten constructs the layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		f.inShape = append([]int(nil), x.Shape...)
	}
	n := x.Shape[0]
	return x.Reshape(n, x.NumElems()/n)
}

// Backward implements Layer.
func (f *Flatten) Backward(dy *tensor.Tensor) *tensor.Tensor {
	return dy.Reshape(f.inShape...)
}
