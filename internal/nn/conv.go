package nn

import (
	"fmt"

	"fp8quant/internal/tensor"
	"fp8quant/internal/tensor/kernels"
)

// Conv2d is a 2-D convolution over NCHW tensors with optional grouping
// (Groups == InC == OutC gives a depthwise convolution, the op that
// makes INT8 struggle on MobileNet/EfficientNet-style models).
type Conv2d struct {
	InC, OutC int
	K         int // square kernel size
	Stride    int
	Pad       int
	Groups    int
	// W has shape [OutC, InC/Groups, K, K].
	W *tensor.Tensor
	// B has length OutC; may be nil.
	B []float32
	// QS holds quantization hooks for the input activation.
	QS QState
}

// NewConv2d allocates a convolution layer with zero weights.
func NewConv2d(inC, outC, k, stride, pad, groups int) *Conv2d {
	if groups <= 0 {
		groups = 1
	}
	if inC%groups != 0 || outC%groups != 0 {
		panic(fmt.Sprintf("nn: conv channels %d->%d not divisible by groups %d", inC, outC, groups))
	}
	return &Conv2d{
		InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad, Groups: groups,
		W: tensor.New(outC, inC/groups, k, k),
		B: make([]float32, outC),
	}
}

// Kind implements Module.
func (c *Conv2d) Kind() string { return "Conv2d" }

// Q implements Quantizable.
func (c *Conv2d) Q() *QState { return &c.QS }

// WeightTensor implements Parametric.
func (c *Conv2d) WeightTensor() *tensor.Tensor { return c.W }

// OutChannelDim implements Parametric.
func (c *Conv2d) OutChannelDim() int { return 0 }

// OutSize returns the spatial output size for input size n.
func (c *Conv2d) OutSize(n int) int {
	return (n+2*c.Pad-c.K)/c.Stride + 1
}

// Forward convolves x [N, InC, H, W] producing [N, OutC, H', W'].
// Output pixels whose window lies fully inside the input go through an
// im2col gather + packed GEMM (kernels.GemmPacked); the padded border
// ring keeps the direct skip-on-pad loop. Both paths accumulate
// products in the same (ic, ky, kx) order from a bias-seeded
// accumulator, so the result is bit-identical to the all-direct
// reference (forwardDirect), which the differential tests pin it
// against.
func (c *Conv2d) Forward(x *tensor.Tensor) *tensor.Tensor { return c.ForwardArena(nil, x) }

// ForwardArena implements ArenaForwarder: the output, the im2col
// patch/scratch buffers and the packed weight panel all carve from a.
func (c *Conv2d) ForwardArena(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 || x.Shape[1] != c.InC {
		panic(fmt.Sprintf("nn: Conv2d expects [N,%d,H,W], got %v", c.InC, x.Shape))
	}
	x = c.QS.applyIn(a, x)
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := c.OutSize(h), c.OutSize(w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: Conv2d output empty for input %v", x.Shape))
	}
	y := a.New(n, c.OutC, oh, ow)
	c.forwardInto(a, y, x, n, h, w, oh, ow)
	return c.QS.applyOut(y)
}

// interior returns the output rows/cols [y0,y1)×[x0,x1) whose K×K
// window is fully inside the input (no padding touched). With Pad == 0
// that is the whole output.
func (c *Conv2d) interior(h, w, oh, ow int) (y0, y1, x0, x1 int) {
	y0 = (c.Pad + c.Stride - 1) / c.Stride
	x0 = y0
	y1 = (h-c.K+c.Pad)/c.Stride + 1
	x1 = (w-c.K+c.Pad)/c.Stride + 1
	if y1 > oh {
		y1 = oh
	}
	if x1 > ow {
		x1 = ow
	}
	if y1 < y0 {
		y1 = y0
	}
	if x1 < x0 {
		x1 = x0
	}
	return
}

// forwardInto dispatches between the im2col+GEMM interior and the
// direct border path.
func (c *Conv2d) forwardInto(a *tensor.Arena, y, x *tensor.Tensor, n, h, w, oh, ow int) {
	y0, y1, x0, x1 := c.interior(h, w, oh, ow)
	npix := (y1 - y0) * (x1 - x0)
	icg := c.InC / c.Groups
	ocg := c.OutC / c.Groups
	kdim := icg * c.K * c.K
	// Degenerate GEMMs (depthwise: ocg=1, kdim=K²) spend more on the
	// gather/pack/scatter round trip than the multiply; the direct loop
	// wins there. Both paths are bit-identical, so this is purely a
	// performance dispatch: the GEMMs below pass NoFused so the kernel
	// keeps two-rounding semantics under every variant, matching the
	// scalar convPixel loop this dispatch (and the border ring) runs.
	// Convolution outputs are therefore variant-independent.
	if npix == 0 || ocg*kdim < 64 {
		c.forwardDirect(y, x, n, h, w, oh, ow)
		return
	}

	// The buffer source is the only difference between the two paths:
	// the arena path carves its buffers and runs the GEMMs serially
	// (plan-per-worker parallelism); the heap path borrows pooled
	// scratch and lets the GEMMs fan out.
	patches, pp := scratch(a, npix*kdim)
	defer kernels.PutScratch(pp)
	out, ps := scratch(a, npix*ocg)
	defer kernels.PutScratch(ps)
	panel, pw := scratch(a, kernels.PanelFloats(kdim, ocg))
	defer kernels.PutScratch(pw)
	for g := 0; g < c.Groups; g++ {
		var bias []float32
		if c.B != nil {
			bias = c.B[g*ocg : (g+1)*ocg]
		}
		// Pack the group's weight panel once and reuse it across the
		// batch; the per-sample GEMM runs against the packed form.
		wg := c.W.Data[g*ocg*kdim : (g+1)*ocg*kdim]
		kernels.PackTInto(panel, wg, kdim, ocg)
		for ni := 0; ni < n; ni++ {
			c.im2col(patches, x, ni, g, h, w, y0, y1, x0, x1)
			// Prologue bias: the accumulator starts at the bias, exactly
			// like the direct loop's acc := bias.
			kernels.GemmPacked(out, patches, panel, npix, kdim, ocg,
				kernels.Opt{Bias: bias, Prologue: true, Serial: a != nil, NoFused: true})
			c.scatter(y, out, ni, g, oh, ow, y0, y1, x0, x1)
		}
	}
	if y1-y0 < oh || x1-x0 < ow {
		c.forwardBorder(y, x, n, h, w, oh, ow, y0, y1, x0, x1)
	}
}

// im2col gathers the interior patches of sample ni, group g into dst
// as a row-major [npix, icg*K*K] matrix. The patch element order is
// (ic, ky, kx) — the direct loop's accumulation order — and every
// element is a genuine input read (no zero padding), so the GEMM
// reduction replays the direct loop exactly.
func (c *Conv2d) im2col(dst []float32, x *tensor.Tensor, ni, g, h, w, y0, y1, x0, x1 int) {
	icg := c.InC / c.Groups
	k := c.K
	kdim := icg * k * k
	idx := 0
	for oy := y0; oy < y1; oy++ {
		iy0 := oy*c.Stride - c.Pad
		for ox := x0; ox < x1; ox++ {
			ix0 := ox*c.Stride - c.Pad
			p := dst[idx*kdim : (idx+1)*kdim]
			pi := 0
			for ic := 0; ic < icg; ic++ {
				base := ((ni*c.InC+g*icg+ic)*h + iy0) * w
				for ky := 0; ky < k; ky++ {
					row := x.Data[base+ky*w+ix0 : base+ky*w+ix0+k]
					copy(p[pi:pi+k], row)
					pi += k
				}
			}
			idx++
		}
	}
}

// scatter copies the GEMM output (row-major [npix, ocg]) into the
// interior rectangle of y's channel planes.
func (c *Conv2d) scatter(y *tensor.Tensor, src []float32, ni, g, oh, ow, y0, y1, x0, x1 int) {
	ocg := c.OutC / c.Groups
	cols := x1 - x0
	for oc := 0; oc < ocg; oc++ {
		plane := y.Data[(ni*c.OutC+g*ocg+oc)*oh*ow:]
		for oy := y0; oy < y1; oy++ {
			row := plane[oy*ow+x0 : oy*ow+x1]
			base := ((oy-y0)*cols)*ocg + oc
			for j := range row {
				row[j] = src[base+j*ocg]
			}
		}
	}
}

// forwardBorder runs the direct loop over every output pixel outside
// the interior rectangle (the ring that touches padding).
func (c *Conv2d) forwardBorder(y, x *tensor.Tensor, n, h, w, oh, ow, y0, y1, x0, x1 int) {
	icg := c.InC / c.Groups
	ocg := c.OutC / c.Groups
	for ni := 0; ni < n; ni++ {
		for oc := 0; oc < c.OutC; oc++ {
			g := oc / ocg
			var bias float32
			if c.B != nil {
				bias = c.B[oc]
			}
			for oy := 0; oy < oh; oy++ {
				inY := oy >= y0 && oy < y1
				for ox := 0; ox < ow; ox++ {
					if inY && ox >= x0 && ox < x1 {
						ox = x1 - 1 // skip the interior span
						continue
					}
					y.Data[((ni*c.OutC+oc)*oh+oy)*ow+ox] =
						c.convPixel(x, ni, oc, g, icg, h, w, oy, ox, bias)
				}
			}
		}
	}
}

// convPixel is the direct skip-on-pad accumulation for one output
// element — the shared reference order for both forward paths.
func (c *Conv2d) convPixel(x *tensor.Tensor, ni, oc, g, icg, h, w, oy, ox int, bias float32) float32 {
	acc := bias
	for ic := 0; ic < icg; ic++ {
		inC := g*icg + ic
		for ky := 0; ky < c.K; ky++ {
			iy := oy*c.Stride - c.Pad + ky
			if iy < 0 || iy >= h {
				continue
			}
			xRow := x.Data[((ni*c.InC+inC)*h+iy)*w:]
			wRow := c.W.Data[((oc*icg+ic)*c.K+ky)*c.K:]
			for kx := 0; kx < c.K; kx++ {
				ix := ox*c.Stride - c.Pad + kx
				if ix < 0 || ix >= w {
					continue
				}
				acc += xRow[ix] * wRow[kx]
			}
		}
	}
	return acc
}

// forwardDirect is the original 7-deep direct convolution, kept as the
// differential-test oracle for the im2col path.
func (c *Conv2d) forwardDirect(y, x *tensor.Tensor, n, h, w, oh, ow int) {
	icg := c.InC / c.Groups
	ocg := c.OutC / c.Groups
	for ni := 0; ni < n; ni++ {
		for oc := 0; oc < c.OutC; oc++ {
			g := oc / ocg
			var bias float32
			if c.B != nil {
				bias = c.B[oc]
			}
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					y.Data[((ni*c.OutC+oc)*oh+oy)*ow+ox] =
						c.convPixel(x, ni, oc, g, icg, h, w, oy, ox, bias)
				}
			}
		}
	}
}

// MaxPool2d takes the max over non-overlapping K×K windows.
type MaxPool2d struct {
	K, Stride int
}

// Kind implements Module.
func (p *MaxPool2d) Kind() string { return "MaxPool2d" }

// Forward pools x [N,C,H,W].
func (p *MaxPool2d) Forward(x *tensor.Tensor) *tensor.Tensor {
	return pool2d(nil, x, p.K, p.Stride, true)
}

// ForwardArena implements ArenaForwarder.
func (p *MaxPool2d) ForwardArena(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	return pool2d(a, x, p.K, p.Stride, true)
}

// AvgPool2d averages over K×K windows.
type AvgPool2d struct {
	K, Stride int
}

// Kind implements Module.
func (p *AvgPool2d) Kind() string { return "AvgPool2d" }

// Forward pools x [N,C,H,W].
func (p *AvgPool2d) Forward(x *tensor.Tensor) *tensor.Tensor {
	return pool2d(nil, x, p.K, p.Stride, false)
}

// ForwardArena implements ArenaForwarder.
func (p *AvgPool2d) ForwardArena(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	return pool2d(a, x, p.K, p.Stride, false)
}

func pool2d(a *tensor.Arena, x *tensor.Tensor, k, stride int, max bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic("nn: pooling expects NCHW")
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (h-k)/stride + 1
	ow := (w-k)/stride + 1
	y := a.New(n, c, oh, ow)
	area := float32(k * k)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			plane := x.Data[(ni*c+ci)*h*w : (ni*c+ci+1)*h*w]
			out := y.Data[(ni*c+ci)*oh*ow : (ni*c+ci+1)*oh*ow]
			for oy := 0; oy < oh; oy++ {
				// One slice per window row: the inner loops walk k
				// contiguous elements instead of recomputing the 4-D
				// offset (two multiplies) per element. The reduction
				// order over (ky, kx) is unchanged.
				top := oy * stride * w
				outRow := out[oy*ow : (oy+1)*ow]
				for ox := 0; ox < ow; ox++ {
					x0 := ox * stride
					var acc float32
					if max {
						acc = plane[top+x0]
						for ky := 0; ky < k; ky++ {
							row := plane[top+ky*w+x0 : top+ky*w+x0+k]
							for _, v := range row {
								if v > acc {
									acc = v
								}
							}
						}
					} else {
						for ky := 0; ky < k; ky++ {
							row := plane[top+ky*w+x0 : top+ky*w+x0+k]
							for _, v := range row {
								acc += v
							}
						}
						acc /= area
					}
					outRow[ox] = acc
				}
			}
		}
	}
	return y
}

// GlobalAvgPool reduces [N,C,H,W] to [N,C].
type GlobalAvgPool struct{}

// Kind implements Module.
func (GlobalAvgPool) Kind() string { return "GlobalAvgPool" }

// Forward averages each channel plane.
func (g GlobalAvgPool) Forward(x *tensor.Tensor) *tensor.Tensor { return g.ForwardArena(nil, x) }

// ForwardArena implements ArenaForwarder.
func (GlobalAvgPool) ForwardArena(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 {
		panic("nn: GlobalAvgPool expects NCHW")
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	y := a.New(n, c)
	area := float32(h * w)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			plane := x.Data[(ni*c+ci)*h*w : (ni*c+ci+1)*h*w]
			var s float32
			for _, v := range plane {
				s += v
			}
			y.Data[ni*c+ci] = s / area
		}
	}
	return y
}

// Flatten reshapes [N, ...] to [N, rest].
type Flatten struct{}

// Kind implements Module.
func (Flatten) Kind() string { return "Flatten" }

// Forward flattens all but the leading dimension.
func (f Flatten) Forward(x *tensor.Tensor) *tensor.Tensor { return f.ForwardArena(nil, x) }

// ForwardArena implements ArenaForwarder: the reshaped view's header
// carves from the arena; the data is shared with x either way.
func (Flatten) ForwardArena(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	return a.View(x.Data, x.Shape[0], x.Len()/x.Shape[0])
}

// Upsample2x nearest-neighbour upsamples [N,C,H,W] to [N,C,2H,2W]
// (used by the U-Net decoder path).
type Upsample2x struct{}

// Kind implements Module.
func (Upsample2x) Kind() string { return "Upsample2x" }

// Forward duplicates each pixel into a 2×2 block.
func (u Upsample2x) Forward(x *tensor.Tensor) *tensor.Tensor { return u.ForwardArena(nil, x) }

// ForwardArena implements ArenaForwarder.
func (Upsample2x) ForwardArena(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	y := a.New(n, c, 2*h, 2*w)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			src := x.Data[(ni*c+ci)*h*w:]
			dst := y.Data[(ni*c+ci)*4*h*w:]
			for iy := 0; iy < h; iy++ {
				for ix := 0; ix < w; ix++ {
					v := src[iy*w+ix]
					dst[(2*iy)*2*w+2*ix] = v
					dst[(2*iy)*2*w+2*ix+1] = v
					dst[(2*iy+1)*2*w+2*ix] = v
					dst[(2*iy+1)*2*w+2*ix+1] = v
				}
			}
		}
	}
	return y
}

// ConcatChannels concatenates two NCHW tensors along the channel dim
// (U-Net skip connections).
func ConcatChannels(a, b *tensor.Tensor) *tensor.Tensor {
	return ConcatChannelsArena(nil, a, b)
}

// ConcatChannelsArena is ConcatChannels with the output carved from ar.
func ConcatChannelsArena(ar *tensor.Arena, a, b *tensor.Tensor) *tensor.Tensor {
	if a.Rank() != 4 || b.Rank() != 4 || a.Shape[0] != b.Shape[0] ||
		a.Shape[2] != b.Shape[2] || a.Shape[3] != b.Shape[3] {
		panic(fmt.Sprintf("nn: ConcatChannels shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	n, ca, cb := a.Shape[0], a.Shape[1], b.Shape[1]
	h, w := a.Shape[2], a.Shape[3]
	y := ar.New(n, ca+cb, h, w)
	hw := h * w
	for ni := 0; ni < n; ni++ {
		copy(y.Data[ni*(ca+cb)*hw:], a.Data[ni*ca*hw:(ni+1)*ca*hw])
		copy(y.Data[(ni*(ca+cb)+ca)*hw:], b.Data[ni*cb*hw:(ni+1)*cb*hw])
	}
	return y
}
