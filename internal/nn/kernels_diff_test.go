package nn

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"fp8quant/internal/tensor"
	"fp8quant/internal/tensor/kernels"
)

// These differential tests pin every layer routed through the blocked
// kernels (Linear, Conv2d im2col, BatchMatMul) to its scalar oracle,
// asserting exact bit equality over randomized shapes that exercise
// the tile remainders, grouped/strided/padded convolutions and rank>2
// linear inputs.

func fillTensor(t *tensor.Tensor, rng *tensor.RNG, scale float64) {
	for i := range t.Data {
		v := rng.Norm() * scale
		// A few huge and tiny magnitudes so any reassociation of the
		// reduction would change the rounding and fail the comparison.
		switch i % 11 {
		case 0:
			v *= 1e5
		case 7:
			v *= 1e-5
		}
		t.Data[i] = float32(v)
	}
}

func requireBitsEqual(t *testing.T, got, want []float32, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: first bit difference at %d: %x vs %x (%g vs %g)",
				what, i, math.Float32bits(got[i]), math.Float32bits(want[i]), got[i], want[i])
		}
	}
}

// linearOracle computes Linear.Forward's result with the original
// scalar loop: matmulT then a separate bias pass.
func linearOracle(l *Linear, x *tensor.Tensor) []float32 {
	rows, _ := flatten2D(x)
	y := make([]float32, rows*l.Out)
	matmulT(y, x.Data, l.W.Data, rows, l.In, l.Out)
	if l.B != nil {
		for r := 0; r < rows; r++ {
			row := y[r*l.Out : (r+1)*l.Out]
			for j := range row {
				row[j] += l.B[j]
			}
		}
	}
	return y
}

func TestLinearForwardMatchesOracle(t *testing.T) {
	rng := tensor.NewRNG(0x11EA)
	cases := []struct {
		shape []int
		out   int
		bias  bool
	}{
		{[]int{1, 1}, 1, true},
		{[]int{3, 7}, 5, true},
		{[]int{16, 256}, 256, true},
		{[]int{5, 33}, 17, false},
		{[]int{2, 3, 31}, 13, true},   // rank-3 input
		{[]int{2, 2, 4, 9}, 11, true}, // rank-4 input
		{[]int{7, 129}, 65, true},     // both tile remainders
	}
	for _, tc := range cases {
		in := tc.shape[len(tc.shape)-1]
		l := NewLinear(in, tc.out)
		fillTensor(l.W, rng, 0.2)
		if tc.bias {
			for i := range l.B {
				l.B[i] = float32(rng.Norm())
			}
		} else {
			l.B = nil
		}
		x := tensor.New(tc.shape...)
		fillTensor(x, rng, 1)
		got := l.Forward(x)
		want := linearOracle(l, x)
		requireBitsEqual(t, got.Data, want, fmt.Sprintf("Linear %v->%d bias=%v", tc.shape, tc.out, tc.bias))
	}
}

func TestConv2dForwardMatchesDirectOracle(t *testing.T) {
	rng := tensor.NewRNG(0xC0F)
	cases := []struct {
		inC, outC, k, stride, pad, groups int
		n, h, w                           int
	}{
		{3, 8, 3, 1, 1, 1, 2, 9, 9},
		{4, 4, 3, 1, 1, 4, 1, 8, 10},   // depthwise
		{8, 12, 3, 2, 1, 4, 2, 11, 13}, // grouped + strided, odd sizes
		{2, 5, 5, 1, 2, 1, 1, 7, 7},    // large kernel, pad 2
		{6, 6, 1, 1, 0, 1, 3, 5, 5},    // 1x1, no pad
		{2, 3, 3, 3, 1, 1, 1, 10, 10},  // stride > pad: interior col 0 empty
		{1, 1, 4, 2, 2, 1, 1, 6, 8},    // even kernel, pad 2
		{2, 2, 3, 1, 1, 1, 1, 3, 3},    // 3x3 output: single interior pixel
	}
	for _, tc := range cases {
		c := NewConv2d(tc.inC, tc.outC, tc.k, tc.stride, tc.pad, tc.groups)
		fillTensor(c.W, rng, 0.3)
		for i := range c.B {
			c.B[i] = float32(rng.Norm())
		}
		x := tensor.New(tc.n, tc.inC, tc.h, tc.w)
		fillTensor(x, rng, 1)
		got := c.Forward(x)
		oh, ow := c.OutSize(tc.h), c.OutSize(tc.w)
		want := tensor.New(tc.n, tc.outC, oh, ow)
		c.forwardDirect(want, x, tc.n, tc.h, tc.w, oh, ow)
		requireBitsEqual(t, got.Data, want.Data,
			fmt.Sprintf("Conv2d %+v", tc))
	}
}

// TestConv2dInfWeightBitIdentical guards the reason the border ring
// avoids zero-filled im2col: with an Inf weight (IEEE formats overflow
// to Inf under fake-quant), a zero-padded patch would turn skip-on-pad
// into 0·Inf = NaN.
func TestConv2dInfWeightBitIdentical(t *testing.T) {
	rng := tensor.NewRNG(0x1FF)
	c := NewConv2d(2, 3, 3, 1, 1, 1)
	fillTensor(c.W, rng, 0.3)
	c.W.Data[4] = float32(math.Inf(1)) // center tap of channel 0
	x := tensor.New(1, 2, 6, 6)
	fillTensor(x, rng, 1)
	got := c.Forward(x)
	want := tensor.New(1, 3, 6, 6)
	c.forwardDirect(want, x, 1, 6, 6, 6, 6)
	requireBitsEqual(t, got.Data, want.Data, "Conv2d with Inf weight")
}

// batchMatMulOracle is the pre-kernel BatchMatMul loop pair, built on
// the active variant's scalar multiply-accumulate (each yi[j] is a
// single accumulator updated in ascending-k order).
func batchMatMulOracle(a, b *tensor.Tensor, transB bool) []float32 {
	madd := kernels.RefMadd(kernels.Active())
	M := a.Shape[a.Rank()-2]
	K := a.Shape[a.Rank()-1]
	var N int
	if transB {
		N = b.Shape[b.Rank()-2]
	} else {
		N = b.Shape[b.Rank()-1]
	}
	batch := a.Len() / (M * K)
	y := make([]float32, batch*M*N)
	for bi := 0; bi < batch; bi++ {
		am := a.Data[bi*M*K : (bi+1)*M*K]
		bm := b.Data[bi*K*N : (bi+1)*K*N]
		ym := y[bi*M*N : (bi+1)*M*N]
		if transB {
			matmulT(ym, am, bm, M, K, N)
		} else {
			for i := 0; i < M; i++ {
				ai := am[i*K : (i+1)*K]
				yi := ym[i*N : (i+1)*N]
				for k := 0; k < K; k++ {
					av := ai[k]
					bk := bm[k*N : (k+1)*N]
					for j := range yi {
						yi[j] = madd(yi[j], av, bk[j])
					}
				}
			}
		}
	}
	return y
}

func TestBatchMatMulMatchesOracle(t *testing.T) {
	rng := tensor.NewRNG(0xB3B)
	cases := []struct {
		aShape, bShape []int
		transB         bool
	}{
		{[]int{3, 5}, []int{5, 7}, false},              // single matrix
		{[]int{3, 5}, []int{7, 5}, true},               // single, transposed
		{[]int{2, 4, 9, 16}, []int{2, 4, 9, 16}, true}, // QKᵀ shape
		{[]int{2, 4, 9, 9}, []int{2, 4, 9, 16}, false}, // PV shape
		{[]int{5, 13, 31}, []int{5, 31, 17}, false},    // odd extents
	}
	for _, tc := range cases {
		a := tensor.New(tc.aShape...)
		b := tensor.New(tc.bShape...)
		fillTensor(a, rng, 1)
		fillTensor(b, rng, 0.5)
		want := batchMatMulOracle(a, b, tc.transB)
		got := BatchMatMul(a, b, tc.transB)
		requireBitsEqual(t, got.Data, want,
			fmt.Sprintf("BatchMatMul %v x %v transB=%v", tc.aShape, tc.bShape, tc.transB))
		// The planned (arena, serial, non-fused-quant) body must agree.
		op := &BatchMatMulOp{TransposeB: tc.transB}
		got = op.ApplyArena(&tensor.Arena{}, a, b)
		requireBitsEqual(t, got.Data, want,
			fmt.Sprintf("BatchMatMulOp.ApplyArena %v x %v transB=%v", tc.aShape, tc.bShape, tc.transB))
	}
}

// TestLayerKernelsDeterministicAcrossWorkers reruns the three routed
// layers under different GOMAXPROCS values (which drives the worker
// pool's chunking) and requires identical bytes.
func TestLayerKernelsDeterministicAcrossWorkers(t *testing.T) {
	rng := tensor.NewRNG(0xDE7)
	l := NewLinear(96, 53)
	fillTensor(l.W, rng, 0.2)
	xl := tensor.New(37, 96)
	fillTensor(xl, rng, 1)
	cv := NewConv2d(8, 12, 3, 1, 1, 2)
	fillTensor(cv.W, rng, 0.3)
	xc := tensor.New(2, 8, 13, 13)
	fillTensor(xc, rng, 1)
	ba := tensor.New(6, 9, 21)
	bb := tensor.New(6, 21, 9)
	fillTensor(ba, rng, 1)
	fillTensor(bb, rng, 1)

	type result struct{ lin, conv, bmm []float32 }
	runAll := func() result {
		return result{
			lin:  l.Forward(xl).Data,
			conv: cv.Forward(xc).Data,
			bmm:  BatchMatMul(ba, bb, false).Data,
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	ref := runAll()
	for _, procs := range []int{2, 8} {
		runtime.GOMAXPROCS(procs)
		got := runAll()
		requireBitsEqual(t, got.lin, ref.lin, fmt.Sprintf("Linear GOMAXPROCS=%d", procs))
		requireBitsEqual(t, got.conv, ref.conv, fmt.Sprintf("Conv2d GOMAXPROCS=%d", procs))
		requireBitsEqual(t, got.bmm, ref.bmm, fmt.Sprintf("BatchMatMul GOMAXPROCS=%d", procs))
	}
}

// TestPool2dMatchesReference pins the row-sliced pooling loops to the
// original per-element indexing.
func TestPool2dMatchesReference(t *testing.T) {
	rng := tensor.NewRNG(0x901)
	x := tensor.New(2, 3, 11, 13)
	fillTensor(x, rng, 1)
	for _, k := range []int{2, 3} {
		for _, stride := range []int{1, 2, 3} {
			gotMax := (&MaxPool2d{K: k, Stride: stride}).Forward(x)
			gotAvg := (&AvgPool2d{K: k, Stride: stride}).Forward(x)
			wantMax, wantAvg := pool2dRef(x, k, stride)
			requireBitsEqual(t, gotMax.Data, wantMax.Data, fmt.Sprintf("MaxPool2d k=%d s=%d", k, stride))
			requireBitsEqual(t, gotAvg.Data, wantAvg.Data, fmt.Sprintf("AvgPool2d k=%d s=%d", k, stride))
		}
	}
}

// pool2dRef is the original pool2d with per-element 4-D offsets.
func pool2dRef(x *tensor.Tensor, k, stride int) (maxT, avgT *tensor.Tensor) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (h-k)/stride + 1
	ow := (w-k)/stride + 1
	maxT = tensor.New(n, c, oh, ow)
	avgT = tensor.New(n, c, oh, ow)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			plane := x.Data[(ni*c+ci)*h*w:]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					mx := plane[(oy*stride)*w+ox*stride]
					var sum float32
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							v := plane[(oy*stride+ky)*w+(ox*stride+kx)]
							if v > mx {
								mx = v
							}
							sum += v
						}
					}
					maxT.Data[((ni*c+ci)*oh+oy)*ow+ox] = mx
					avgT.Data[((ni*c+ci)*oh+oy)*ow+ox] = sum / float32(k*k)
				}
			}
		}
	}
	return
}
