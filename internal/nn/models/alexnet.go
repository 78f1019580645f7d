package models

import (
	"math/rand/v2"

	"repro/internal/nn"
)

// AlexNetMini is a scaled-down AlexNet: stacked 3×3 convolutions with max
// pooling and a large dense head, no batch normalization — which is why the
// paper's Table III reports 99.98% of AlexNet's state as lossy-compressible
// weights (only conv/dense biases are metadata).
func AlexNetMini(rng *rand.Rand, in Input) *nn.Network {
	h, w := in.Height, in.Width
	layers := []nn.Layer{
		nn.NewConv2D(rng, "features.0", in.Channels, 24, 3, 1, 1),
		nn.NewReLU(),
		nn.NewMaxPool2D(2),
		nn.NewConv2D(rng, "features.3", 24, 48, 3, 1, 1),
		nn.NewReLU(),
		nn.NewMaxPool2D(2),
		nn.NewConv2D(rng, "features.6", 48, 64, 3, 1, 1),
		nn.NewReLU(),
		nn.NewConv2D(rng, "features.8", 64, 48, 3, 1, 1),
		nn.NewReLU(),
		nn.NewMaxPool2D(2),
		nn.NewFlatten(),
	}
	fh, fw := h/8, w/8
	feat := 48 * fh * fw
	layers = append(layers,
		nn.NewDense(rng, "classifier.0", feat, 192),
		nn.NewReLU(),
		nn.NewDense(rng, "classifier.2", 192, in.Classes),
	)
	return nn.NewNetwork(layers...)
}
