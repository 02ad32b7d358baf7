package nn

import (
	"fmt"

	"fp8quant/internal/tensor"
	"fp8quant/internal/tensor/kernels"
)

// Linear is a fully-connected layer: y = x·Wᵀ + b. The weight is stored
// as [Out, In] so that per-channel (per-output-row) scaling matches the
// paper's recommended weight quantization granularity.
type Linear struct {
	In, Out int
	// W has shape [Out, In].
	W *tensor.Tensor
	// B has length Out; may be nil for no bias.
	B []float32
	// QS holds quantization hooks for the input activation.
	QS QState
}

// NewLinear allocates a Linear layer with zero weights.
func NewLinear(in, out int) *Linear {
	return &Linear{In: in, Out: out, W: tensor.New(out, in), B: make([]float32, out)}
}

// Kind implements Module.
func (l *Linear) Kind() string { return "Linear" }

// Q implements Quantizable.
func (l *Linear) Q() *QState { return &l.QS }

// WeightTensor implements Parametric.
func (l *Linear) WeightTensor() *tensor.Tensor { return l.W }

// OutChannelDim implements Parametric: rows of W index output channels.
func (l *Linear) OutChannelDim() int { return 0 }

// Forward computes x·Wᵀ + b. x may have any leading shape as long as
// the final dimension equals In; the output replaces it with Out.
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor { return l.ForwardArena(nil, x) }

// ForwardArena implements ArenaForwarder. The weight panel is repacked
// into scratch (arena or pooled) on every call — packing is a pure copy, and the
// weights themselves may be requantized in place between calls, so
// panels are never cached.
func (l *Linear) ForwardArena(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	rows, cols := flatten2D(x)
	if cols != l.In {
		panic(fmt.Sprintf("nn: Linear expects last dim %d, got shape %v", l.In, x.Shape))
	}
	x = l.QS.applyIn(a, x)
	y := newLike(a, x, l.Out)
	// Bias rides in the GEMM epilogue: acc = Σ_k x·w, then acc += b —
	// the same operation order as the old separate per-row pass.
	// Planned forwards run the kernel serially (the pooled-closure
	// fan-out allocates); parallelism comes from one plan per worker,
	// and the kernels' bit-identity contract makes serial and
	// fanned-out runs byte-identical.
	panel, pp := scratch(a, kernels.PanelFloats(l.In, l.Out))
	defer kernels.PutScratch(pp)
	kernels.PackTInto(panel, l.W.Data, l.In, l.Out)
	kernels.GemmPacked(y.Data, x.Data, panel, rows, l.In, l.Out, kernels.Opt{Bias: l.B, Serial: a != nil})
	return l.QS.applyOut(y)
}

// matmulT computes y[r,o] = sum_k x[r,k] * w[o,k] for row-major
// buffers: x is [rows, in], w is [out, in], y is [rows, out].
// Accumulation is float32, matching typical FP8-with-FP32-accumulate
// hardware behaviour emulated by the paper. It is the scalar oracle
// packed kernels.GemmPacked route is pinned against by the
// differential tests in kernels_diff_test.go: a single accumulator in
// ascending-k order, using the active variant's multiply-accumulate
// (two roundings on the generic/sse tiers, the exactly-rounded fused
// step on avx2).
func matmulT(y, x, w []float32, rows, in, out int) {
	madd := kernels.RefMadd(kernels.Active())
	for r := 0; r < rows; r++ {
		xr := x[r*in : (r+1)*in]
		yr := y[r*out : (r+1)*out]
		for o := 0; o < out; o++ {
			wo := w[o*in : (o+1)*in]
			var acc float32
			for k := range xr {
				acc = madd(acc, xr[k], wo[k])
			}
			yr[o] = acc
		}
	}
}

// MatMulOp is an explicit activation×activation matrix multiply leaf
// (torch.matmul between two tensors), quantized only by the extended
// scheme. Both operands are activations, so it carries two input hooks.
type MatMulOp struct {
	// QA and QB quantize the two operands.
	QA, QB QState
}

// Kind implements Module.
func (m *MatMulOp) Kind() string { return "MatMul" }

// Q returns the first operand's QState (Quantizable interface); use QB
// for the second operand.
func (m *MatMulOp) Q() *QState { return &m.QA }

// Forward is unsupported: MatMulOp is binary. Use Apply.
func (m *MatMulOp) Forward(x *tensor.Tensor) *tensor.Tensor {
	panic("nn: MatMulOp is binary; call Apply(a, b)")
}

// Apply multiplies a [.., M, K] by b [.., K, N] treating leading
// dimensions as batch (they must match); returns [.., M, N].
func (m *MatMulOp) Apply(a, b *tensor.Tensor) *tensor.Tensor {
	return m.ApplyArena(nil, a, b)
}

// ApplyArena is Apply with intermediates carved from ar. The b operand
// is the one the GEMM packs into panels, so when its QState carries a
// fused quantizer the fake-quant folds into packing — no quantized
// copy of b is materialized, and the result is bit-identical to the
// copy path by the RowQuantFactory contract.
func (m *MatMulOp) ApplyArena(ar *tensor.Arena, a, b *tensor.Tensor) *tensor.Tensor {
	return quantBatchMatMul(ar, &m.QA, &m.QB, a, b, false)
}

// BatchMatMulOp is the BMM leaf used inside attention (QKᵀ and PV).
type BatchMatMulOp struct {
	QA, QB QState
	// TransposeB multiplies by bᵀ over the last two dims.
	TransposeB bool
}

// Kind implements Module.
func (m *BatchMatMulOp) Kind() string { return "BatchMatMul" }

// Q returns the first operand's QState.
func (m *BatchMatMulOp) Q() *QState { return &m.QA }

// Forward is unsupported: BatchMatMulOp is binary. Use Apply.
func (m *BatchMatMulOp) Forward(x *tensor.Tensor) *tensor.Tensor {
	panic("nn: BatchMatMulOp is binary; call Apply(a, b)")
}

// Apply performs the batched multiply.
func (m *BatchMatMulOp) Apply(a, b *tensor.Tensor) *tensor.Tensor {
	return m.ApplyArena(nil, a, b)
}

// ApplyArena is Apply with intermediates carved from ar; like
// MatMulOp, a fused quantizer on the b operand folds into panel
// packing.
func (m *BatchMatMulOp) ApplyArena(ar *tensor.Arena, a, b *tensor.Tensor) *tensor.Tensor {
	return quantBatchMatMul(ar, &m.QA, &m.QB, a, b, m.TransposeB)
}

// quantBatchMatMul runs the operand hooks qa and qb, then multiplies.
// A fused quantizer on b is handed to batchMatMul for panel packing
// instead of materializing a quantized copy of b.
func quantBatchMatMul(ar *tensor.Arena, qa, qb *QState, a, b *tensor.Tensor, transB bool) *tensor.Tensor {
	a = qa.applyIn(ar, a)
	q := qb.fusedQuant(b)
	if q == nil {
		b = qb.applyIn(ar, b)
	}
	return batchMatMul(ar, a, b, transB, q)
}

// BatchMatMul multiplies batched matrices: a is [batch..., M, K] and b
// is [batch..., K, N] (or [batch..., N, K] when transB). Leading batch
// dims must match exactly.
func BatchMatMul(a, b *tensor.Tensor, transB bool) *tensor.Tensor {
	return batchMatMul(nil, a, b, transB, nil)
}

// batchMatMul is the shared batched-multiply body. A non-nil q is a
// chunkable fake-quantizer (whole-tensor statistics already bound, see
// QState.fusedQuant) applied to b during panel packing — the fused
// form of quantize-b-then-multiply, byte-identical to it.
//
// Every batch element runs the same pack → GemmPacked route; only the
// fan-out differs. A planned (arena) call runs the batch serially
// (plan-per-worker parallelism); a heap call fans the batch out over
// the worker pool, or, for a single matrix, the GEMM's rows. The
// kernels' bit-identity contract makes every schedule byte-equal.
func batchMatMul(ar *tensor.Arena, a, b *tensor.Tensor, transB bool, q kernels.QuantFunc) *tensor.Tensor {
	batch, M, K, N := bmmDims(a, b, transB)
	y := newLike2(ar, a, M, N)
	if ar != nil || batch == 1 {
		bmmRange(ar, y.Data, a.Data, b.Data, 0, batch, M, K, N, transB, q, ar != nil)
		return y
	}
	tensor.ParallelFor(batch, 1, func(lo, hi int) {
		bmmRange(nil, y.Data, a.Data, b.Data, lo, hi, M, K, N, transB, q, true)
	})
	return y
}

// bmmDims validates the operand shapes of a batched multiply and
// returns the batch count and the per-element GEMM extents.
func bmmDims(a, b *tensor.Tensor, transB bool) (batch, M, K, N int) {
	if a.Rank() < 2 || b.Rank() < 2 {
		panic("nn: BatchMatMul needs rank >= 2")
	}
	M = a.Shape[a.Rank()-2]
	K = a.Shape[a.Rank()-1]
	bK, bN := b.Shape[b.Rank()-2], b.Shape[b.Rank()-1]
	if transB {
		bK, bN = bN, bK
	}
	if bK != K {
		panic(fmt.Sprintf("nn: BatchMatMul inner dims mismatch: %v x %v (transB=%v)", a.Shape, b.Shape, transB))
	}
	N = bN
	batch = a.Len() / (M * K)
	if b.Len()/(K*N) != batch {
		panic(fmt.Sprintf("nn: BatchMatMul batch mismatch: %v x %v", a.Shape, b.Shape))
	}
	return batch, M, K, N
}

// bmmRange multiplies batch elements [lo, hi): each packs its b matrix
// (through q when non-nil) into one panel and runs GemmPacked against
// it. Repacking overwrites the panel fully (including the zero tail),
// so reusing it across elements is exact.
func bmmRange(ar *tensor.Arena, y, a, b []float32, lo, hi, M, K, N int, transB bool, q kernels.QuantFunc, serial bool) {
	panel, pp := scratch(ar, kernels.PanelFloats(K, N))
	defer kernels.PutScratch(pp)
	var stage []float32
	if q != nil {
		var sp *[]float32
		stage, sp = scratch(ar, kernels.QuantStageFloats(K, N))
		defer kernels.PutScratch(sp)
	}
	for bi := lo; bi < hi; bi++ {
		am := a[bi*M*K : (bi+1)*M*K]
		bm := b[bi*K*N : (bi+1)*K*N]
		switch {
		case q != nil && transB:
			kernels.PackTQuantInto(panel, stage, bm, K, N, q)
		case q != nil:
			kernels.PackNQuantInto(panel, stage, bm, K, N, q)
		case transB:
			kernels.PackTInto(panel, bm, K, N)
		default:
			kernels.PackNInto(panel, bm, K, N)
		}
		kernels.GemmPacked(y[bi*M*N:(bi+1)*M*N], am, panel, M, K, N, kernels.Opt{Serial: serial})
	}
}

// newLike2 carves the [.., M, N] output shape for a batched matmul
// whose batch dims come from a, without heap-allocating the shape.
func newLike2(ar *tensor.Arena, a *tensor.Tensor, M, N int) *tensor.Tensor {
	var buf [8]int
	r := a.Rank()
	if r > len(buf) {
		shape := append(append([]int(nil), a.Shape[:r-2]...), M, N)
		return ar.New(shape...)
	}
	copy(buf[:r-2], a.Shape[:r-2])
	buf[r-2], buf[r-1] = M, N
	return ar.New(buf[:r]...)
}

// scratch returns an n-float GEMM buffer: carved from a when planned,
// else borrowed from the kernels' pool. The second result is the
// pooled buffer to hand back with kernels.PutScratch (nil for arena
// slices, which PutScratch ignores); the buffer source is the only
// difference between planned and unplanned GEMM routes.
func scratch(a *tensor.Arena, n int) ([]float32, *[]float32) {
	if a != nil {
		return a.Alloc(n), nil
	}
	p := kernels.GetScratch(n)
	return *p, p
}
