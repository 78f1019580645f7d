// Package nn is a small pure-Go deep-learning substrate: enough of a neural
// network framework (conv / dense / batch-norm / pooling layers with
// backpropagation, SGD, and parallel GEMM) to run real federated-learning
// rounds for the FedSZ accuracy experiments.
//
// Design notes:
//
//   - Tensors are NCHW row-major float32 (tensor.Tensor).
//   - Layers cache their forward inputs, so a Network is single-goroutine;
//     data parallelism happens one level up (several clients train
//     concurrently) and inside GEMM (row-parallel workers).
//   - Every trainable or stateful array is exposed as a Param with a
//     tensor.Kind, which is exactly what the FedSZ partitioner consumes.
package nn

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/tensor"
)

// Param is one named, kinded array owned by a layer. Grad is nil for
// non-trainable state (running statistics, counters).
type Param struct {
	Name string
	Kind tensor.Kind
	Val  *tensor.Tensor
	Grad *tensor.Tensor
}

// Trainable reports whether the optimizer should update this parameter.
func (p *Param) Trainable() bool { return p.Grad != nil }

// Layer is one differentiable stage of a network.
type Layer interface {
	// Forward computes the layer output. train selects training-time
	// behaviour (batch statistics, cached activations).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes dL/dy and returns dL/dx, accumulating parameter
	// gradients. Must follow a Forward call with train=true.
	Backward(dy *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's parameters (empty for stateless layers).
	Params() []*Param
}

// Network is an ordered sequence of layers with state-dict plumbing.
type Network struct {
	Layers []Layer
}

// NewNetwork builds a network from layers.
func NewNetwork(layers ...Layer) *Network {
	return &Network{Layers: layers}
}

// Forward runs the full stack.
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs the full reverse stack.
func (n *Network) Backward(dy *tensor.Tensor) *tensor.Tensor {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		dy = n.Layers[i].Backward(dy)
	}
	return dy
}

// Params returns all parameters in layer order.
func (n *Network) Params() []*Param {
	var out []*Param
	for _, l := range n.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// ZeroGrads clears all gradient accumulators.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		if p.Grad != nil {
			p.Grad.Fill(0)
		}
	}
}

// NumParams counts every element, trainable or not (matching PyTorch's
// state_dict size that FedSZ transmits).
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Val.NumElems()
	}
	return total
}

// StateDict snapshots all parameters into an ordered state dict. Values are
// deep-copied so the snapshot is stable under further training.
func (n *Network) StateDict() *tensor.StateDict {
	sd := tensor.NewStateDict()
	for _, p := range n.Params() {
		sd.Add(p.Name, p.Kind, p.Val.Clone())
	}
	return sd
}

// LoadStateDict copies values from sd into the network's parameters. Every
// network parameter must be present with a matching element count.
func (n *Network) LoadStateDict(sd *tensor.StateDict) error {
	for _, p := range n.Params() {
		t := sd.Get(p.Name)
		if t == nil {
			return fmt.Errorf("nn: state dict missing %q", p.Name)
		}
		if t.NumElems() != p.Val.NumElems() {
			return fmt.Errorf("nn: %q size mismatch: %d != %d", p.Name, t.NumElems(), p.Val.NumElems())
		}
		copy(p.Val.Data, t.Data)
	}
	return nil
}

// Initializers.

// KaimingConv fills a [outC, inC, kH, kW] kernel with He-normal values.
func KaimingConv(rng *rand.Rand, t *tensor.Tensor) {
	fanIn := 1
	for _, d := range t.Shape[1:] {
		fanIn *= d
	}
	std := math.Sqrt(2 / float64(fanIn))
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
}

// XavierDense fills a [out, in] matrix with Glorot-uniform values.
func XavierDense(rng *rand.Rand, t *tensor.Tensor) {
	fanOut, fanIn := t.Shape[0], t.Shape[1]
	limit := math.Sqrt(6 / float64(fanIn+fanOut))
	for i := range t.Data {
		t.Data[i] = float32((rng.Float64()*2 - 1) * limit)
	}
}
