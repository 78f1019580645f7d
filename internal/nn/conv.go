package nn

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/tensor"
)

// Conv2D is a standard 2-D convolution implemented as im2col + GEMM.
// Input/output layout is NCHW.
type Conv2D struct {
	name                 string
	InC, OutC            int
	KH, KW, Stride, Pad  int
	W                    *Param    // [OutC, InC, KH, KW]
	B                    *Param    // [OutC]
	cols                 []float32 // cached im2col of last forward (train)
	inH, inW, outH, outW int
	batch                int
}

// NewConv2D constructs the layer with He-normal weights.
func NewConv2D(rng *rand.Rand, name string, inC, outC, k, stride, pad int) *Conv2D {
	w := tensor.New(outC, inC, k, k)
	KaimingConv(rng, w)
	c := &Conv2D{
		name: name, InC: inC, OutC: outC, KH: k, KW: k, Stride: stride, Pad: pad,
		W: &Param{Name: name + ".weight", Kind: tensor.KindWeight, Val: w, Grad: tensor.New(outC, inC, k, k)},
		B: &Param{Name: name + ".bias", Kind: tensor.KindBias, Val: tensor.New(outC), Grad: tensor.New(outC)},
	}
	return c
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

func (c *Conv2D) outDims(h, w int) (int, int) {
	return (h+2*c.Pad-c.KH)/c.Stride + 1, (w+2*c.Pad-c.KW)/c.Stride + 1
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, ch, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if ch != c.InC {
		panic(fmt.Sprintf("%s: input channels %d != %d", c.name, ch, c.InC))
	}
	outH, outW := c.outDims(h, w)
	c.batch, c.inH, c.inW, c.outH, c.outW = n, h, w, outH, outW
	y := tensor.New(n, c.OutC, outH, outW)
	patch := c.InC * c.KH * c.KW
	colSize := patch * outH * outW
	if train {
		if cap(c.cols) < n*colSize {
			c.cols = make([]float32, n*colSize)
		}
		c.cols = c.cols[:n*colSize]
	}
	scratch := c.cols
	if !train {
		scratch = make([]float32, colSize)
	}
	wFlat := c.W.Val.Data // [OutC, patch]
	for s := 0; s < n; s++ {
		var cols []float32
		if train {
			cols = scratch[s*colSize : (s+1)*colSize]
		} else {
			cols = scratch
		}
		im2col(x.Data[s*ch*h*w:(s+1)*ch*h*w], ch, h, w, c.KH, c.KW, c.Stride, c.Pad, cols)
		out := y.Data[s*c.OutC*outH*outW : (s+1)*c.OutC*outH*outW]
		Gemm(wFlat, c.OutC, patch, cols, outH*outW, out)
		for oc := 0; oc < c.OutC; oc++ {
			bv := c.B.Val.Data[oc]
			if bv == 0 {
				continue
			}
			row := out[oc*outH*outW : (oc+1)*outH*outW]
			for i := range row {
				row[i] += bv
			}
		}
	}
	return y
}

// Backward implements Layer.
func (c *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n := c.batch
	patch := c.InC * c.KH * c.KW
	colSize := patch * c.outH * c.outW
	plane := c.outH * c.outW
	dx := tensor.New(n, c.InC, c.inH, c.inW)
	dcols := make([]float32, colSize)
	wFlat := c.W.Val.Data
	for s := 0; s < n; s++ {
		dys := dy.Data[s*c.OutC*plane : (s+1)*c.OutC*plane]
		cols := c.cols[s*colSize : (s+1)*colSize]
		// dW += dy · colsᵀ  (OutC×plane · plane×patch)
		GemmTB(dys, c.OutC, plane, cols, patch, c.W.Grad.Data, true)
		// dcols = Wᵀ · dy  (patch×OutC · OutC×plane)
		GemmTA(wFlat, c.OutC, patch, dys, plane, dcols, false)
		col2im(dcols, c.InC, c.inH, c.inW, c.KH, c.KW, c.Stride, c.Pad,
			dx.Data[s*c.InC*c.inH*c.inW:(s+1)*c.InC*c.inH*c.inW])
		// dB += sum over spatial positions.
		for oc := 0; oc < c.OutC; oc++ {
			var sum float32
			row := dys[oc*plane : (oc+1)*plane]
			for _, v := range row {
				sum += v
			}
			c.B.Grad.Data[oc] += sum
		}
	}
	return dx
}

// im2col unrolls conv patches: cols is [C*KH*KW, outH*outW] row-major.
func im2col(img []float32, ch, h, w, kh, kw, stride, pad int, cols []float32) {
	outH := (h+2*pad-kh)/stride + 1
	outW := (w+2*pad-kw)/stride + 1
	plane := outH * outW
	row := 0
	for c := 0; c < ch; c++ {
		base := c * h * w
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				dst := cols[row*plane : (row+1)*plane]
				row++
				di := 0
				for oy := 0; oy < outH; oy++ {
					iy := oy*stride - pad + ky
					if iy < 0 || iy >= h {
						for ox := 0; ox < outW; ox++ {
							dst[di] = 0
							di++
						}
						continue
					}
					src := img[base+iy*w:]
					for ox := 0; ox < outW; ox++ {
						ix := ox*stride - pad + kx
						if ix < 0 || ix >= w {
							dst[di] = 0
						} else {
							dst[di] = src[ix]
						}
						di++
					}
				}
			}
		}
	}
}

// col2im scatters gradient columns back to image space (accumulating).
func col2im(cols []float32, ch, h, w, kh, kw, stride, pad int, img []float32) {
	outH := (h+2*pad-kh)/stride + 1
	outW := (w+2*pad-kw)/stride + 1
	plane := outH * outW
	row := 0
	for c := 0; c < ch; c++ {
		base := c * h * w
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				src := cols[row*plane : (row+1)*plane]
				row++
				si := 0
				for oy := 0; oy < outH; oy++ {
					iy := oy*stride - pad + ky
					if iy < 0 || iy >= h {
						si += outW
						continue
					}
					dst := img[base+iy*w:]
					for ox := 0; ox < outW; ox++ {
						ix := ox*stride - pad + kx
						if ix >= 0 && ix < w {
							dst[ix] += src[si]
						}
						si++
					}
				}
			}
		}
	}
}

// DepthwiseConv2D applies one k×k filter per channel (groups == channels),
// the MobileNetV2 building block.
type DepthwiseConv2D struct {
	name                 string
	C, K, Stride, Pad    int
	W                    *Param // [C, 1, K, K]
	B                    *Param // [C]
	x                    *tensor.Tensor
	inH, inW, outH, outW int
}

// NewDepthwiseConv2D constructs the layer.
func NewDepthwiseConv2D(rng *rand.Rand, name string, ch, k, stride, pad int) *DepthwiseConv2D {
	w := tensor.New(ch, 1, k, k)
	KaimingConv(rng, w)
	return &DepthwiseConv2D{
		name: name, C: ch, K: k, Stride: stride, Pad: pad,
		W: &Param{Name: name + ".weight", Kind: tensor.KindWeight, Val: w, Grad: tensor.New(ch, 1, k, k)},
		B: &Param{Name: name + ".bias", Kind: tensor.KindBias, Val: tensor.New(ch), Grad: tensor.New(ch)},
	}
}

// Params implements Layer.
func (d *DepthwiseConv2D) Params() []*Param { return []*Param{d.W, d.B} }

// Forward implements Layer.
func (d *DepthwiseConv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, ch, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if ch != d.C {
		panic(fmt.Sprintf("%s: channels %d != %d", d.name, ch, d.C))
	}
	outH := (h+2*d.Pad-d.K)/d.Stride + 1
	outW := (w+2*d.Pad-d.K)/d.Stride + 1
	d.inH, d.inW, d.outH, d.outW = h, w, outH, outW
	if train {
		d.x = x
	}
	y := tensor.New(n, ch, outH, outW)
	for s := 0; s < n; s++ {
		for c := 0; c < ch; c++ {
			src := x.Data[(s*ch+c)*h*w:]
			dst := y.Data[(s*ch+c)*outH*outW:]
			ker := d.W.Val.Data[c*d.K*d.K:]
			bv := d.B.Val.Data[c]
			di := 0
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					var acc float32
					for ky := 0; ky < d.K; ky++ {
						iy := oy*d.Stride - d.Pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < d.K; kx++ {
							ix := ox*d.Stride - d.Pad + kx
							if ix < 0 || ix >= w {
								continue
							}
							acc += src[iy*w+ix] * ker[ky*d.K+kx]
						}
					}
					dst[di] = acc + bv
					di++
				}
			}
		}
	}
	return y
}

// Backward implements Layer.
func (d *DepthwiseConv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	x := d.x
	n, ch := x.Shape[0], x.Shape[1]
	h, w := d.inH, d.inW
	dx := tensor.New(n, ch, h, w)
	for s := 0; s < n; s++ {
		for c := 0; c < ch; c++ {
			src := x.Data[(s*ch+c)*h*w:]
			g := dy.Data[(s*ch+c)*d.outH*d.outW:]
			ker := d.W.Val.Data[c*d.K*d.K:]
			kg := d.W.Grad.Data[c*d.K*d.K:]
			dsrc := dx.Data[(s*ch+c)*h*w:]
			var bsum float32
			gi := 0
			for oy := 0; oy < d.outH; oy++ {
				for ox := 0; ox < d.outW; ox++ {
					gv := g[gi]
					gi++
					bsum += gv
					if gv == 0 {
						continue
					}
					for ky := 0; ky < d.K; ky++ {
						iy := oy*d.Stride - d.Pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < d.K; kx++ {
							ix := ox*d.Stride - d.Pad + kx
							if ix < 0 || ix >= w {
								continue
							}
							kg[ky*d.K+kx] += gv * src[iy*w+ix]
							dsrc[iy*w+ix] += gv * ker[ky*d.K+kx]
						}
					}
				}
			}
			d.B.Grad.Data[c] += bsum
		}
	}
	return dx
}
