package models

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/nn"
)

// MobileNetV2Mini is a scaled-down MobileNetV2: a conv+BN+ReLU6 stem
// followed by inverted-residual bottlenecks (1×1 expand → 3×3 depthwise →
// 1×1 project, residual add when shapes match), global pooling, and a dense
// classifier. Its relatively heavy use of batch norm is why Table III
// reports the lowest lossy fraction (96.94%) of the three models.
func MobileNetV2Mini(rng *rand.Rand, in Input) *nn.Network {
	layers := []nn.Layer{
		nn.NewConv2D(rng, "features.0.0", in.Channels, 16, 3, 1, 1),
		nn.NewBatchNorm2D("features.0.1", 16),
		nn.NewReLU6(),
	}
	type spec struct {
		expand, out, stride int
	}
	specs := []spec{
		{2, 16, 1},
		{3, 24, 2},
		{3, 24, 1},
		{3, 32, 2},
		{3, 32, 1},
	}
	cur := 16
	for i, s := range specs {
		layers = append(layers, invertedResidual(rng, fmt.Sprintf("features.%d", i+1), cur, s.out, s.expand, s.stride))
		cur = s.out
	}
	layers = append(layers,
		nn.NewConv2D(rng, "features.head.0", cur, 64, 1, 1, 0),
		nn.NewBatchNorm2D("features.head.1", 64),
		nn.NewReLU6(),
		nn.NewGlobalAvgPool(),
		nn.NewDense(rng, "classifier", 64, in.Classes),
	)
	return nn.NewNetwork(layers...)
}

// invertedResidual builds the MobileNetV2 bottleneck. The residual add is
// applied only for stride-1 blocks with matching channel counts; any other
// block is its layers in sequence.
func invertedResidual(rng *rand.Rand, name string, inC, outC, expand, stride int) nn.Layer {
	mid := inC * expand
	body := []nn.Layer{
		nn.NewConv2D(rng, name+".expand", inC, mid, 1, 1, 0),
		nn.NewBatchNorm2D(name+".expand_bn", mid),
		nn.NewReLU6(),
		nn.NewDepthwiseConv2D(rng, name+".depthwise", mid, 3, stride, 1),
		nn.NewBatchNorm2D(name+".depthwise_bn", mid),
		nn.NewReLU6(),
		nn.NewConv2D(rng, name+".project", mid, outC, 1, 1, 0),
		nn.NewBatchNorm2D(name+".project_bn", outC),
	}
	if stride == 1 && inC == outC {
		return nn.NewResidual(body, nil)
	}
	return nn.NewNetwork(body...)
}
