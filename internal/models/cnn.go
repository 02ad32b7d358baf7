package models

import (
	"fmt"
	"math"

	"fp8quant/internal/data"
	"fp8quant/internal/nn"
	"fp8quant/internal/tensor"
)

// Shared CV evaluation geometry: small images keep the zoo fast while
// exercising every operator the real architectures use.
const (
	cvImage   = 12
	cvChans   = 3
	cvBatch   = 16
	cvBatches = 16
)

func cvDataset(seed uint64) data.Dataset {
	return &data.ImageDataset{N: cvBatch, C: cvChans, H: cvImage, W: cvImage,
		NumBatches: cvBatches, Seed: seed}
}

// convBN is Conv → BatchNorm → activation, the workhorse CV unit.
type convBN struct {
	Conv *nn.Conv2d
	BN   *nn.BatchNorm2d
	Act  nn.Module // nil for linear
}

func newConvBN(r *tensor.RNG, inC, outC, k, stride, pad, groups int, act nn.Module) *convBN {
	c := nn.NewConv2d(inC, outC, k, stride, pad, groups)
	initConv(c, r)
	bn := nn.NewBatchNorm2d(outC)
	initBN(bn, r)
	return &convBN{Conv: c, BN: bn, Act: act}
}

// initBN gives BatchNorm realistic non-identity statistics so that
// re-calibration (Figure 7) has real work to do. bnGammaSpread (a
// per-builder knob, see withGammaSpread) widens the log-normal gamma
// distribution: mobile-family networks have per-channel activation
// ranges spanning an order of magnitude, which is precisely what makes
// per-tensor INT8 activation scaling fail on them (Figure 4 caption)
// while FP8's log-spaced grid keeps per-value relative precision.
func initBN(bn *nn.BatchNorm2d, r *tensor.RNG) {
	initBNSpread(bn, r, 0.2)
}

func initBNSpread(bn *nn.BatchNorm2d, r *tensor.RNG, spread float64) {
	for i := 0; i < bn.C; i++ {
		bn.Gamma[i] = float32(math.Exp(spread * r.Norm()))
		bn.Beta[i] = float32(0.1 * r.Norm())
		bn.Mean[i] = float32(0.1 * r.Norm())
		bn.Var[i] = float32(0.5 + 0.5*r.Float64())
	}
}

// Kind implements nn.Module.
func (c *convBN) Kind() string { return "ConvBN" }

// Visit implements nn.Container.
func (c *convBN) Visit(path string, v nn.Visitor) {
	nn.WalkChild(path+"/conv", c.Conv, v)
	nn.WalkChild(path+"/bn", c.BN, v)
}

// Forward runs conv → BN → act.
func (c *convBN) Forward(x *tensor.Tensor) *tensor.Tensor {
	return c.ForwardArena(nil, x)
}

// ForwardArena implements nn.ArenaForwarder.
func (c *convBN) ForwardArena(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	x = c.BN.ForwardArena(a, c.Conv.ForwardArena(a, x))
	if c.Act != nil {
		x = nn.ForwardWith(a, c.Act, x)
	}
	return x
}

// inceptionBlock concatenates parallel branches (GoogleNet/Inception).
type inceptionBlock struct {
	Branches []nn.Module
}

// Kind implements nn.Module.
func (b *inceptionBlock) Kind() string { return "Inception" }

// Visit implements nn.Container.
func (b *inceptionBlock) Visit(path string, v nn.Visitor) {
	for i, br := range b.Branches {
		nn.WalkChild(fmt.Sprintf("%s/branch%d", path, i), br, v)
	}
}

// Forward concatenates branch outputs along channels.
func (b *inceptionBlock) Forward(x *tensor.Tensor) *tensor.Tensor {
	return b.ForwardArena(nil, x)
}

// ForwardArena implements nn.ArenaForwarder.
func (b *inceptionBlock) ForwardArena(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	out := nn.ForwardWith(a, b.Branches[0], x)
	for _, br := range b.Branches[1:] {
		out = nn.ConcatChannelsArena(a, out, nn.ForwardWith(a, br, x))
	}
	return out
}

// fireBlock is SqueezeNet's fire module.
type fireBlock struct {
	Squeeze, Expand1, Expand3 *convBN
}

// Kind implements nn.Module.
func (f *fireBlock) Kind() string { return "Fire" }

// Visit implements nn.Container.
func (f *fireBlock) Visit(path string, v nn.Visitor) {
	nn.WalkChild(path+"/squeeze", f.Squeeze, v)
	nn.WalkChild(path+"/expand1", f.Expand1, v)
	nn.WalkChild(path+"/expand3", f.Expand3, v)
}

// Forward runs squeeze then concatenated 1x1/3x3 expands.
func (f *fireBlock) Forward(x *tensor.Tensor) *tensor.Tensor {
	return f.ForwardArena(nil, x)
}

// ForwardArena implements nn.ArenaForwarder.
func (f *fireBlock) ForwardArena(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	s := f.Squeeze.ForwardArena(a, x)
	return nn.ConcatChannelsArena(a, f.Expand1.ForwardArena(a, s), f.Expand3.ForwardArena(a, s))
}

// invertedResidual is the MobileNetV2/V3 and EfficientNet MBConv block:
// pointwise expand → depthwise → (SE) → pointwise project, with an
// additive skip when shapes match.
type invertedResidual struct {
	Expand  *convBN // nil when expansion ratio is 1
	DW      *convBN
	SE      *nn.SEBlock // nil when not used
	Project *convBN
	Skip    *nn.AddOp // nil when stride/channels change
}

// Kind implements nn.Module.
func (b *invertedResidual) Kind() string { return "InvertedResidual" }

// Visit implements nn.Container.
func (b *invertedResidual) Visit(path string, v nn.Visitor) {
	if b.Expand != nil {
		nn.WalkChild(path+"/expand", b.Expand, v)
	}
	nn.WalkChild(path+"/dw", b.DW, v)
	if b.SE != nil {
		nn.WalkChild(path+"/se", b.SE, v)
	}
	nn.WalkChild(path+"/project", b.Project, v)
	if b.Skip != nil {
		nn.WalkChild(path+"/skip", b.Skip, v)
	}
}

// Forward runs the block.
func (b *invertedResidual) Forward(x *tensor.Tensor) *tensor.Tensor {
	return b.ForwardArena(nil, x)
}

// ForwardArena implements nn.ArenaForwarder.
func (b *invertedResidual) ForwardArena(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	h := x
	if b.Expand != nil {
		h = b.Expand.ForwardArena(a, h)
	}
	h = b.DW.ForwardArena(a, h)
	if b.SE != nil {
		h = b.SE.ForwardArena(a, h)
	}
	h = b.Project.ForwardArena(a, h)
	if b.Skip != nil {
		h = b.Skip.ApplyArena(a, h, x)
	}
	return h
}

func newInvertedResidual(r *tensor.RNG, inC, outC, stride, expand int, se bool, act nn.Module) *invertedResidual {
	mid := inC * expand
	b := &invertedResidual{}
	if expand != 1 {
		b.Expand = newConvBN(r, inC, mid, 1, 1, 0, 1, act)
	}
	b.DW = newConvBN(r, mid, mid, 3, stride, 1, mid, act)
	if se {
		b.SE = nn.NewSEBlock(mid, 4)
		initLinear(b.SE.FC1, r)
		initLinear(b.SE.FC2, r)
	}
	b.Project = newConvBN(r, mid, outC, 1, 1, 0, 1, nil)
	if stride == 1 && inC == outC {
		b.Skip = &nn.AddOp{}
	}
	return b
}

// denseBlock implements DenseNet's concatenative connectivity; its
// BatchNorms cannot be folded into convolutions (the paper's footnote
// on why BatchNorm coverage matters).
type denseBlock struct {
	Layers []*convBN
}

// Kind implements nn.Module.
func (d *denseBlock) Kind() string { return "DenseBlock" }

// Visit implements nn.Container.
func (d *denseBlock) Visit(path string, v nn.Visitor) {
	for i, l := range d.Layers {
		nn.WalkChild(fmt.Sprintf("%s/dense%d", path, i), l, v)
	}
}

// Forward concatenates each layer's output onto its input.
func (d *denseBlock) Forward(x *tensor.Tensor) *tensor.Tensor {
	return d.ForwardArena(nil, x)
}

// ForwardArena implements nn.ArenaForwarder.
func (d *denseBlock) ForwardArena(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	for _, l := range d.Layers {
		x = nn.ConcatChannelsArena(a, x, l.ForwardArena(a, x))
	}
	return x
}

func newDenseBlock(r *tensor.RNG, inC, growth, n int) (*denseBlock, int) {
	d := &denseBlock{}
	c := inC
	for i := 0; i < n; i++ {
		d.Layers = append(d.Layers, newConvBN(r, c, growth, 3, 1, 1, 1, nn.ReLU{}))
		c += growth
	}
	return d, c
}

// channelShuffle permutes channels between groups (ShuffleNet).
type channelShuffle struct{ Groups int }

// Kind implements nn.Module.
func (c channelShuffle) Kind() string { return "ChannelShuffle" }

// Forward interleaves channel groups.
func (c channelShuffle) Forward(x *tensor.Tensor) *tensor.Tensor {
	return c.ForwardArena(nil, x)
}

// ForwardArena implements nn.ArenaForwarder.
func (c channelShuffle) ForwardArena(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	n, ch, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	g := c.Groups
	if ch%g != 0 {
		return x
	}
	per := ch / g
	hw := h * w
	y := a.New(x.Shape...)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < ch; ci++ {
			src := x.Data[(ni*ch+ci)*hw : (ni*ch+ci+1)*hw]
			// channel ci = (group gi, index pi) -> pi*g + gi
			gi, pi := ci/per, ci%per
			dst := y.Data[(ni*ch+pi*g+gi)*hw:]
			copy(dst[:hw], src)
		}
	}
	return y
}

// cnnHead is GlobalAvgPool → Linear classifier.
func cnnHead(r *tensor.RNG, c, classes int) []nn.Module {
	fc := nn.NewLinear(c, classes)
	initLinear(fc, r)
	return []nn.Module{nn.GlobalAvgPool{}, fc}
}

// buildCNN assembles a Sequential CV model with standard plumbing.
// gammaSpread > 0 re-draws every BatchNorm gamma with the given
// log-normal spread (mobile-family channel-range imbalance).
func buildCNN(info Info, seed uint64, body func(r *tensor.RNG, seq *nn.Sequential) int, classes int, gammaSpread float64) *Network {
	r := tensor.NewRNG(seed)
	seq := &nn.Sequential{}
	outC := body(r, seq)
	for _, m := range cnnHead(r, outC, classes) {
		seq.Add("", m)
	}
	if gammaSpread > 0 {
		gr := tensor.NewRNG(seed ^ 0x6A77A)
		nn.Walk(seq, func(_ string, m nn.Module) {
			if bn, ok := m.(*nn.BatchNorm2d); ok {
				initBNSpread(bn, gr, gammaSpread)
			}
		})
	}
	net := &Network{
		Meta:    info,
		root:    seq,
		Data:    cvDataset(seed ^ 0xDA7A),
		Classes: classes,
	}
	WarmBatchNorms(net, 4)
	return net
}

// resnetBody builds stem + basic-block stages.
func resnetBody(widths []int, blocks []int, se bool) func(r *tensor.RNG, seq *nn.Sequential) int {
	return func(r *tensor.RNG, seq *nn.Sequential) int {
		seq.Add("stem", newConvBN(r, cvChans, widths[0], 3, 1, 1, 1, nn.ReLU{}))
		c := widths[0]
		for si, w := range widths {
			for bi := 0; bi < blocks[si]; bi++ {
				stride := 1
				if bi == 0 && si > 0 {
					stride = 2
				}
				rb := nn.NewResidualBlock(c, w, stride)
				initConv(rb.Conv1, r)
				initConv(rb.Conv2, r)
				initBN(rb.BN1, r)
				initBN(rb.BN2, r)
				if rb.Proj != nil {
					initConv(rb.Proj, r)
					initBN(rb.ProjBN, r)
				}
				seq.Add(fmt.Sprintf("s%db%d", si, bi), rb)
				c = w
				if se {
					seb := nn.NewSEBlock(c, 4)
					initLinear(seb.FC1, r)
					initLinear(seb.FC2, r)
					seq.Add(fmt.Sprintf("s%db%dse", si, bi), seb)
				}
			}
		}
		return c
	}
}

// vggBody builds conv-conv-pool stages without BatchNorm.
func vggBody(widths []int, convs int) func(r *tensor.RNG, seq *nn.Sequential) int {
	return func(r *tensor.RNG, seq *nn.Sequential) int {
		c := cvChans
		for si, w := range widths {
			for k := 0; k < convs; k++ {
				conv := nn.NewConv2d(c, w, 3, 1, 1, 1)
				initConv(conv, r)
				seq.Add(fmt.Sprintf("s%dc%d", si, k), conv)
				seq.Add("", nn.ReLU{})
				c = w
			}
			if si < len(widths)-1 {
				seq.Add("", &nn.MaxPool2d{K: 2, Stride: 2})
			}
		}
		return c
	}
}

func mobilenetBody(v3 bool) func(r *tensor.RNG, seq *nn.Sequential) int {
	return func(r *tensor.RNG, seq *nn.Sequential) int {
		var act nn.Module = nn.ReLU{}
		if v3 {
			act = nn.HardSwish{}
		}
		seq.Add("stem", newConvBN(r, cvChans, 8, 3, 1, 1, 1, act))
		cfg := []struct{ in, out, stride, expand int }{
			{8, 12, 1, 2}, {12, 12, 1, 3}, {12, 16, 2, 3}, {16, 16, 1, 3},
		}
		for i, c := range cfg {
			seq.Add(fmt.Sprintf("ir%d", i),
				newInvertedResidual(r, c.in, c.out, c.stride, c.expand, v3, act))
		}
		return 16
	}
}

func efficientnetBody(depth int) func(r *tensor.RNG, seq *nn.Sequential) int {
	return func(r *tensor.RNG, seq *nn.Sequential) int {
		act := nn.SiLU{}
		seq.Add("stem", newConvBN(r, cvChans, 8, 3, 1, 1, 1, act))
		c := 8
		for i := 0; i < depth; i++ {
			out := c
			stride := 1
			if i == depth/2 {
				out, stride = c+8, 2
			}
			seq.Add(fmt.Sprintf("mb%d", i),
				newInvertedResidual(r, c, out, stride, 3, true, act))
			c = out
		}
		return c
	}
}

func densenetBody(growth, n1, n2 int) func(r *tensor.RNG, seq *nn.Sequential) int {
	return func(r *tensor.RNG, seq *nn.Sequential) int {
		seq.Add("stem", newConvBN(r, cvChans, 8, 3, 1, 1, 1, nn.ReLU{}))
		d1, c := newDenseBlock(r, 8, growth, n1)
		seq.Add("dense1", d1)
		seq.Add("trans", newConvBN(r, c, c/2, 1, 1, 0, 1, nn.ReLU{}))
		seq.Add("", &nn.AvgPool2d{K: 2, Stride: 2})
		d2, c2 := newDenseBlock(r, c/2, growth, n2)
		seq.Add("dense2", d2)
		return c2
	}
}

func inceptionBody(deep bool) func(r *tensor.RNG, seq *nn.Sequential) int {
	return func(r *tensor.RNG, seq *nn.Sequential) int {
		seq.Add("stem", newConvBN(r, cvChans, 8, 3, 2, 1, 1, nn.ReLU{}))
		mk := func(in int) *inceptionBlock {
			return &inceptionBlock{Branches: []nn.Module{
				newConvBN(r, in, 8, 1, 1, 0, 1, nn.ReLU{}),
				nn.NewSequential(
					newConvBN(r, in, 6, 1, 1, 0, 1, nn.ReLU{}),
					newConvBN(r, 6, 8, 3, 1, 1, 1, nn.ReLU{})),
				nn.NewSequential(
					newConvBN(r, in, 4, 1, 1, 0, 1, nn.ReLU{}),
					newConvBN(r, 4, 8, 5, 1, 2, 1, nn.ReLU{})),
			}}
		}
		seq.Add("inc1", mk(8))
		c := 24
		if deep {
			seq.Add("inc2", mk(c))
			c = 24
		}
		return c
	}
}

func shufflenetBody() func(r *tensor.RNG, seq *nn.Sequential) int {
	return func(r *tensor.RNG, seq *nn.Sequential) int {
		seq.Add("stem", newConvBN(r, cvChans, 8, 3, 1, 1, 1, nn.ReLU{}))
		seq.Add("g1", newConvBN(r, 8, 16, 1, 1, 0, 2, nn.ReLU{}))
		seq.Add("", channelShuffle{Groups: 2})
		seq.Add("dw1", newConvBN(r, 16, 16, 3, 2, 1, 16, nil))
		seq.Add("g2", newConvBN(r, 16, 16, 1, 1, 0, 2, nn.ReLU{}))
		seq.Add("", channelShuffle{Groups: 2})
		seq.Add("dw2", newConvBN(r, 16, 16, 3, 1, 1, 16, nil))
		seq.Add("g3", newConvBN(r, 16, 16, 1, 1, 0, 2, nn.ReLU{}))
		return 16
	}
}

func squeezenetBody() func(r *tensor.RNG, seq *nn.Sequential) int {
	return func(r *tensor.RNG, seq *nn.Sequential) int {
		seq.Add("stem", newConvBN(r, cvChans, 8, 3, 2, 1, 1, nn.ReLU{}))
		f1 := &fireBlock{
			Squeeze: newConvBN(r, 8, 4, 1, 1, 0, 1, nn.ReLU{}),
			Expand1: newConvBN(r, 4, 8, 1, 1, 0, 1, nn.ReLU{}),
			Expand3: newConvBN(r, 4, 8, 3, 1, 1, 1, nn.ReLU{}),
		}
		seq.Add("fire1", f1)
		f2 := &fireBlock{
			Squeeze: newConvBN(r, 16, 4, 1, 1, 0, 1, nn.ReLU{}),
			Expand1: newConvBN(r, 4, 8, 1, 1, 0, 1, nn.ReLU{}),
			Expand3: newConvBN(r, 4, 8, 3, 1, 1, 1, nn.ReLU{}),
		}
		seq.Add("fire2", f2)
		return 16
	}
}

func yoloBody() func(r *tensor.RNG, seq *nn.Sequential) int {
	return func(r *tensor.RNG, seq *nn.Sequential) int {
		// Darknet-style: strided convs with BN, leaky-ish ReLU stands
		// in for LeakyReLU.
		widths := []int{8, 16, 24}
		c := cvChans
		for i, w := range widths {
			seq.Add(fmt.Sprintf("d%d", i), newConvBN(r, c, w, 3, 2, 1, 1, nn.ReLU{}))
			seq.Add(fmt.Sprintf("p%d", i), newConvBN(r, w, w, 1, 1, 0, 1, nn.ReLU{}))
			c = w
		}
		return c
	}
}

func registerCNN(name string, sizeMB float64, classes int, hasBN bool,
	body func(r *tensor.RNG, seq *nn.Sequential) int) {
	registerCNNSpread(name, sizeMB, classes, hasBN, 0, body)
}

// registerCNNSpread registers a CV model whose BatchNorm gammas are
// re-drawn with the given log-normal spread (see initBNSpread).
func registerCNNSpread(name string, sizeMB float64, classes int, hasBN bool,
	gammaSpread float64, body func(r *tensor.RNG, seq *nn.Sequential) int) {
	info := Info{
		Name: name, Domain: CV, Task: "imagenet-sim", SizeMB: sizeMB,
		IsCNN: true, HasBN: hasBN,
	}
	register(info, func(seed uint64) *Network {
		return buildCNN(info, seed, body, classes, gammaSpread)
	})
}

func init() {
	// ResNet family and friends.
	registerCNN("resnet18", 45, 10, true, resnetBody([]int{8, 16}, []int{2, 2}, false))
	registerCNN("resnet34", 83, 10, true, resnetBody([]int{8, 16}, []int{3, 2}, false))
	registerCNN("resnet50", 98, 12, true, resnetBody([]int{8, 16, 24}, []int{2, 2, 2}, false))
	registerCNN("resnext101", 170, 12, true, resnetBody([]int{10, 20}, []int{2, 2}, false))
	registerCNN("wide_resnet50", 132, 10, true, resnetBody([]int{12, 24}, []int{2, 2}, false))
	registerCNNSpread("se_resnext50", 105, 10, true, 0.55, resnetBody([]int{8, 16}, []int{2, 2}, true))
	registerCNNSpread("resnest50", 110, 10, true, 0.55, resnetBody([]int{8, 16}, []int{2, 3}, true))
	registerCNN("cifar_resnet20", 1.1, 8, true, resnetBody([]int{8}, []int{3}, false))
	registerCNN("regnet_y", 22, 8, true, resnetBody([]int{8, 12}, []int{2, 2}, true))

	// VGG family (no BatchNorm).
	registerCNN("vgg11", 507, 10, false, vggBody([]int{8, 16}, 1))
	registerCNN("vgg13", 508, 10, false, vggBody([]int{8, 16}, 2))
	registerCNN("vgg16", 528, 12, false, vggBody([]int{8, 16, 16}, 2))

	// DenseNets (unfoldable BatchNorm).
	registerCNN("densenet121", 31, 10, true, densenetBody(6, 3, 3))
	registerCNN("densenet169", 55, 10, true, densenetBody(6, 4, 3))
	registerCNN("peleenet", 21, 8, true, densenetBody(4, 3, 2))

	// Mobile families (depthwise; INT8's classic trouble spot).
	registerCNNSpread("mobilenet_v2", 14, 8, true, 0.7, mobilenetBody(false))
	registerCNNSpread("mobilenet_v3", 21, 8, true, 0.9, mobilenetBody(true))
	registerCNNSpread("shufflenet_v2", 9, 8, true, 0.5, shufflenetBody())
	registerCNNSpread("mnasnet", 17, 8, true, 0.6, mobilenetBody(false))
	registerCNNSpread("ghostnet", 20, 8, true, 0.8, mobilenetBody(true))

	// EfficientNets (SE + SiLU).
	registerCNNSpread("efficientnet_b0", 21, 10, true, 1.0, efficientnetBody(3))
	registerCNNSpread("efficientnet_b4", 75, 10, true, 1.1, efficientnetBody(4))

	// Inception family.
	registerCNN("googlenet", 27, 10, true, inceptionBody(false))
	registerCNN("inception_v3", 104, 10, true, inceptionBody(true))
	registerCNN("squeezenet", 4.8, 8, true, squeezenetBody())

	// Detection backbone.
	registerCNN("yolov3", 237, 8, true, yoloBody())

	// Modernized ConvNet (depthwise 7x7-ish stages, here 3x3 at this
	// scale).
	registerCNN("convnext_tiny", 109, 10, true, resnetBody([]int{12, 16}, []int{2, 2}, false))
}
