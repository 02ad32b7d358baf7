package models

import (
	"fp8quant/internal/nn"
	"fp8quant/internal/tensor"
)

// unetNet is the encoder-decoder segmentation network with skip
// connections (U-Net / Carvana masking). Norm selects BatchNorm
// (classic U-Net) or GroupNorm + SiLU (diffusion denoiser style).
type unetNet struct {
	Enc1, Enc2 nn.Module
	Bottleneck nn.Module
	Dec1       nn.Module
	OutConv    *nn.Conv2d
	Pool       *nn.MaxPool2d
	Up         nn.Upsample2x
	// classes is the per-pixel logit count.
	classes int
}

// Kind implements nn.Module.
func (u *unetNet) Kind() string { return "UNet" }

// Visit implements nn.Container.
func (u *unetNet) Visit(path string, v nn.Visitor) {
	nn.WalkChild(path+"/enc1", u.Enc1, v)
	nn.WalkChild(path+"/enc2", u.Enc2, v)
	nn.WalkChild(path+"/bottleneck", u.Bottleneck, v)
	nn.WalkChild(path+"/dec1", u.Dec1, v)
	nn.WalkChild(path+"/out", u.OutConv, v)
}

// Forward segments x [N,C,H,W], returning per-pixel logits flattened to
// [N*H*W, classes] so the standard argmax-agreement evaluation applies
// per pixel.
func (u *unetNet) Forward(x *tensor.Tensor) *tensor.Tensor {
	return u.ForwardArena(nil, x)
}

// ForwardArena implements nn.ArenaForwarder.
func (u *unetNet) ForwardArena(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	e1 := nn.ForwardWith(a, u.Enc1, x)                          // [N, c1, H, W]
	e2 := nn.ForwardWith(a, u.Enc2, u.Pool.ForwardArena(a, e1)) // [N, c2, H/2, W/2]
	b := nn.ForwardWith(a, u.Bottleneck, e2)
	d := u.Up.ForwardArena(a, b) // back to [.., H, W]
	d = nn.ConcatChannelsArena(a, d, e1)
	d = nn.ForwardWith(a, u.Dec1, d)
	lg := u.OutConv.ForwardArena(a, d) // [N, classes, H, W]
	n, c, h, w := lg.Shape[0], lg.Shape[1], lg.Shape[2], lg.Shape[3]
	out := a.New(n*h*w, c)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			plane := lg.Data[(ni*c+ci)*h*w : (ni*c+ci+1)*h*w]
			for p, v := range plane {
				out.Data[(ni*h*w+p)*c+ci] = v
			}
		}
	}
	return out
}

// groupNormConv is Conv → GroupNorm → SiLU (diffusion style).
type groupNormConv struct {
	Conv *nn.Conv2d
	GN   *nn.GroupNorm
}

// Kind implements nn.Module.
func (g *groupNormConv) Kind() string { return "GNConv" }

// Visit implements nn.Container.
func (g *groupNormConv) Visit(path string, v nn.Visitor) {
	nn.WalkChild(path+"/conv", g.Conv, v)
	nn.WalkChild(path+"/gn", g.GN, v)
}

// Forward runs the unit.
func (g *groupNormConv) Forward(x *tensor.Tensor) *tensor.Tensor {
	return g.ForwardArena(nil, x)
}

// ForwardArena implements nn.ArenaForwarder.
func (g *groupNormConv) ForwardArena(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	var act nn.SiLU
	return act.ForwardArena(a, g.GN.ForwardArena(a, g.Conv.ForwardArena(a, x)))
}

func newGNConv(r *tensor.RNG, inC, outC int) *groupNormConv {
	c := nn.NewConv2d(inC, outC, 3, 1, 1, 1)
	initConv(c, r)
	gn := nn.NewGroupNorm(outC, 2)
	for i := range gn.Gamma {
		gn.Gamma[i] = float32(1 + 0.1*r.Norm())
	}
	return &groupNormConv{Conv: c, GN: gn}
}

func buildUNet(info Info, seed uint64, classes int, diffusionStyle bool) *Network {
	r := tensor.NewRNG(seed)
	var enc1, enc2, bott, dec1 nn.Module
	if diffusionStyle {
		enc1 = newGNConv(r, cvChans, 8)
		enc2 = newGNConv(r, 8, 16)
		bott = newGNConv(r, 16, 16)
		dec1 = newGNConv(r, 24, 8)
	} else {
		enc1 = newConvBN(r, cvChans, 8, 3, 1, 1, 1, nn.ReLU{})
		enc2 = newConvBN(r, 8, 16, 3, 1, 1, 1, nn.ReLU{})
		bott = newConvBN(r, 16, 16, 3, 1, 1, 1, nn.ReLU{})
		dec1 = newConvBN(r, 24, 8, 3, 1, 1, 1, nn.ReLU{})
	}
	out := nn.NewConv2d(8, classes, 1, 1, 0, 1)
	initConv(out, r)
	net := &unetNet{
		Enc1: enc1, Enc2: enc2, Bottleneck: bott, Dec1: dec1,
		OutConv: out, Pool: &nn.MaxPool2d{K: 2, Stride: 2}, classes: classes,
	}
	n := &Network{
		Meta:    info,
		root:    net,
		Data:    cvDataset(seed ^ 0x0E7),
		Classes: classes,
	}
	WarmBatchNorms(n, 4)
	return n
}

func init() {
	infoU := Info{Name: "unet_carvana", Domain: CV, Task: "carvana-sim",
		SizeMB: 124, IsCNN: true, HasBN: true}
	register(infoU, func(seed uint64) *Network { return buildUNet(infoU, seed, 2, false) })

	infoF := Info{Name: "fcn_resnet50", Domain: CV, Task: "voc-seg-sim",
		SizeMB: 135, IsCNN: true, HasBN: true}
	register(infoF, func(seed uint64) *Network { return buildUNet(infoF, seed, 8, false) })

	infoS := Info{Name: "stable_diffusion_unet", Domain: CV, Task: "coco-gen-sim",
		SizeMB: 3400, IsCNN: true, HasLN: true}
	register(infoS, func(seed uint64) *Network { return buildUNet(infoS, seed, 4, true) })
}
