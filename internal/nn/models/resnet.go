package models

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/nn"
)

// ResNetMini is a scaled-down residual network in the ResNet50 family:
// conv+BN stem, three stages of basic residual blocks with projection
// shortcuts on the downsampling blocks, global average pooling, dense head.
// Batch-norm running statistics populate the lossless partition.
func ResNetMini(rng *rand.Rand, in Input) *nn.Network {
	layers := []nn.Layer{
		nn.NewConv2D(rng, "conv1", in.Channels, 16, 3, 1, 1),
		nn.NewBatchNorm2D("bn1", 16),
		nn.NewReLU(),
	}
	chans := []int{16, 32, 48}
	cur := 16
	for stage, ch := range chans {
		stride := 1
		if stage > 0 {
			stride = 2
		}
		layers = append(layers, basicBlock(rng, fmt.Sprintf("layer%d.0", stage+1), cur, ch, stride))
		layers = append(layers, basicBlock(rng, fmt.Sprintf("layer%d.1", stage+1), ch, ch, 1))
		cur = ch
	}
	layers = append(layers,
		nn.NewGlobalAvgPool(),
		nn.NewDense(rng, "fc", cur, in.Classes),
	)
	return nn.NewNetwork(layers...)
}

// basicBlock is the two-conv residual block. A 1×1 projection shortcut is
// used when the shape changes.
func basicBlock(rng *rand.Rand, name string, inC, outC, stride int) nn.Layer {
	body := []nn.Layer{
		nn.NewConv2D(rng, name+".conv1", inC, outC, 3, stride, 1),
		nn.NewBatchNorm2D(name+".bn1", outC),
		nn.NewReLU(),
		nn.NewConv2D(rng, name+".conv2", outC, outC, 3, 1, 1),
		nn.NewBatchNorm2D(name+".bn2", outC),
	}
	var skip []nn.Layer
	if inC != outC || stride != 1 {
		skip = []nn.Layer{
			nn.NewConv2D(rng, name+".downsample.0", inC, outC, 1, stride, 0),
			nn.NewBatchNorm2D(name+".downsample.1", outC),
		}
	}
	return nn.NewResidual(body, skip)
}
