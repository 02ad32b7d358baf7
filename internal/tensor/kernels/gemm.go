// Package kernels holds the blocked compute kernels behind the nn
// layer forward paths: a register-tiled, worker-pool-parallel GEMM for
// Linear, im2col convolution and attention BMMs. Every caller takes one
// route: pack B into a micro-panel buffer (PackTInto for the
// transposed [out, in] weight layout, PackNInto for the natural
// [in, out] layout, or their fused-quant forms PackTQuantInto and
// PackNQuantInto), then run GemmPacked against it. The panel comes
// from the caller's arena or from pooled GetScratch buffers.
//
// Bit-identity contract (per variant): for every output element y[r,o]
// the kernels perform exactly the same float32 operation sequence as
// the variant's scalar oracle — one accumulator, products x[r,k]·b[k,o]
// combined in ascending k order, bias either seeding the accumulator
// (prologue, convolution) or added once after the sum (epilogue,
// Linear). The speedup comes only from parallelism across *independent*
// output elements — an mr-row × 8-column register tile turns the serial
// FP-add latency chain into mr·8 concurrent chains (SIMD lanes on
// amd64, ILP elsewhere) — plus packed weight panels (contiguous loads,
// less weight traffic per row block) and hoisted bounds checks; a sum
// is never reassociated or vectorized across k. Results are therefore
// byte-identical to the variant's scalar reference for any shape, any
// worker count, and any chunking of the row range. (The one
// unspecifiable corner is the payload of NaN·NaN products, which the
// scalar Go expression does not pin down either.)
//
// Variants (see variant.go): the generic and sse tiers round every
// multiply and add separately, matching the naive two-rounding loop;
// the avx2 tier uses fused multiply-adds that round once per update
// and pins to the fused oracle fmaRef instead. Which tier ran is part
// of a result's provenance — callers record Active() alongside any
// kernel-derived artifact.
package kernels

import (
	"sync"

	"fp8quant/internal/tensor"
)

const (
	// nr is the register-tile width and the packed panel width, shared
	// by every variant; the tile height mr is per-variant (kernel.mr).
	nr = 8

	// minParallelOps is the smallest number of multiply-adds handed to
	// one worker; below it the goroutine handoff costs more than the
	// arithmetic.
	minParallelOps = 1 << 15
)

// Opt carries the optional parts of a GEMM call.
type Opt struct {
	// Bias, when non-nil, has length out and is folded into the kernel.
	Bias []float32
	// Prologue seeds each accumulator with Bias[o] before the k loop
	// (convolution semantics: acc starts at the bias). When false the
	// bias is added once after the sum (Linear semantics).
	Prologue bool
	// Serial skips the worker-pool fan-out; used by callers that are
	// already running inside a parallel region (e.g. per-batch BMMs).
	Serial bool
	// NoFused pins the call to two-rounding semantics under every
	// variant: when the active tier is fused (avx2) the call falls back
	// to the best non-fused tier (sse on amd64, generic elsewhere).
	// Convolution sets it because its interior-GEMM vs direct-border
	// dispatch is a pure performance choice whose two paths must agree
	// bit for bit — and the scalar border loop cannot cheaply reproduce
	// fused rounding. Conv results are therefore variant-independent.
	NoFused bool
}

// panelPool recycles packed weight panels and other scratch buffers.
var panelPool sync.Pool // *[]float32

// GetScratch returns a float32 scratch buffer with at least n elements
// from the shared pool. The contents are undefined.
func GetScratch(n int) *[]float32 {
	if p, ok := panelPool.Get().(*[]float32); ok {
		if cap(*p) >= n {
			*p = (*p)[:n]
			return p
		}
	}
	s := make([]float32, n)
	return &s
}

// PutScratch returns a buffer obtained from GetScratch to the pool; a
// nil p (a caller whose buffer came from an arena) is ignored.
func PutScratch(p *[]float32) {
	if p != nil {
		panelPool.Put(p)
	}
}

// PanelFloats returns the float32 length of the packed panel for a
// [rows=out, cols=in] weight (both packT and packN layouts). Callers
// carving panels from a preallocated arena size them with this.
func PanelFloats(in, out int) int {
	npan := (out + nr - 1) / nr
	return npan * in * nr
}

// PackTInto packs w (row-major [out, in], the Linear weight layout)
// into panel, which must have at least PanelFloats(in, out) elements.
// The packing is a pure copy (zero-filled nr tail), so repacking into
// a reused buffer writes identical bytes every time.
func PackTInto(panel, w []float32, in, out int) { packT(panel, w, in, out) }

// PackNInto packs b (row-major [in, out], the natural matmul layout)
// into panel, which must have at least PanelFloats(in, out) elements.
func PackNInto(panel, b []float32, in, out int) { packN(panel, b, in, out) }

// GemmPacked computes y[r,o] = Σ_k x[r,k]·b[k,o] (+ bias) for x
// row-major [rows, in] and y row-major [rows, out], against a panel
// holding b already packed by PackTInto/PackNInto (or their fused-quant
// forms). It is the one GEMM entry point: callers pack into arena or
// pooled scratch and may reuse a panel across row blocks (e.g. one
// panel per convolution group reused across the batch).
func GemmPacked(y, x, panel []float32, rows, in, out int, opt Opt) {
	if rows <= 0 || out <= 0 {
		return
	}
	run(y, x, panel, rows, in, out, opt)
}

// packT packs w (row-major [out, in]; rows are output columns) into
// nr-wide micro panels: panel[pj*in*nr + k*nr + j] = w[(pj*nr+j)*in+k],
// zero-filled for the out%nr tail so the microkernel can always read
// nr lanes. The zero lanes are never stored to y, so their values are
// irrelevant (even 0·Inf = NaN stays local to a dead lane).
func packT(panel, w []float32, in, out int) {
	npan := (out + nr - 1) / nr
	for pj := 0; pj < npan; pj++ {
		o0 := pj * nr
		cols := out - o0
		if cols > nr {
			cols = nr
		}
		dst := panel[pj*in*nr : (pj+1)*in*nr]
		if cols == nr {
			// Full panel: the nr source rows are contiguous in w, so this
			// is an 8-row interleave a transpose kernel can do in one pass
			// (amd64) or a fused row walk (elsewhere) instead of the
			// j-outer form's nr strided crossings of the panel. Same bytes
			// either way — packing is a pure copy.
			packPanel8(dst, w[o0*in:(o0+nr)*in], in)
			continue
		}
		for j := 0; j < cols; j++ {
			src := w[(o0+j)*in : (o0+j+1)*in]
			for k, v := range src {
				dst[k*nr+j] = v
			}
		}
		for j := cols; j < nr; j++ {
			for k := 0; k < in; k++ {
				dst[k*nr+j] = 0
			}
		}
	}
}

// packPanel8Go interleaves nr contiguous source rows (src is row-major
// [nr, in]) into one full micro panel, columns [from, in). The pure-Go
// path for non-amd64 hosts and the k%4 tail of the amd64 transpose
// kernel.
func packPanel8Go(dst, src []float32, in, from int) {
	r0 := src[0*in : 1*in][:in:in]
	r1 := src[1*in : 2*in][:in:in]
	r2 := src[2*in : 3*in][:in:in]
	r3 := src[3*in : 4*in][:in:in]
	r4 := src[4*in : 5*in][:in:in]
	r5 := src[5*in : 6*in][:in:in]
	r6 := src[6*in : 7*in][:in:in]
	r7 := src[7*in : 8*in][:in:in]
	d := dst[from*nr:]
	for k := from; k < in; k++ {
		d[7] = r7[k] // stores len(d) ≥ 8, eliding the checks below
		d[0], d[1], d[2], d[3] = r0[k], r1[k], r2[k], r3[k]
		d[4], d[5], d[6] = r4[k], r5[k], r6[k]
		d = d[8:]
	}
}

// packN packs b (row-major [in, out]) into the same micro-panel layout
// as packT: panel[pj*in*nr + k*nr + j] = b[k*out + pj*nr + j].
func packN(panel, b []float32, in, out int) {
	npan := (out + nr - 1) / nr
	for pj := 0; pj < npan; pj++ {
		o0 := pj * nr
		cols := out - o0
		if cols > nr {
			cols = nr
		}
		dst := panel[pj*in*nr : (pj+1)*in*nr]
		for k := 0; k < in; k++ {
			src := b[k*out+o0 : k*out+o0+cols]
			d := dst[k*nr : k*nr+nr]
			for j, v := range src {
				d[j] = v
			}
			for j := cols; j < nr; j++ {
				d[j] = 0
			}
		}
	}
}

// run drives the packed panels over the row range, fanning row blocks
// out over the shared worker pool unless opt.Serial. Each row's output
// is computed independently of where chunk boundaries fall, so any
// worker count yields identical bytes.
func run(y, x, panel []float32, rows, in, out int, opt Opt) {
	if in == 0 {
		// Empty reduction: y is the bias (or zero), per element.
		for r := 0; r < rows; r++ {
			yr := y[r*out : (r+1)*out]
			for o := range yr {
				if opt.Bias != nil {
					yr[o] = opt.Bias[o]
				} else {
					yr[o] = 0
				}
			}
		}
		return
	}
	if opt.Serial {
		// The closure below escapes into the worker pool, costing one
		// heap allocation per call; the serial path (planned forwards,
		// per-batch BMMs) calls the range body directly so steady-state
		// planned GEMMs allocate nothing.
		runRange(y, x, panel, 0, rows, in, out, opt)
		return
	}
	body := func(lo, hi int) {
		runRange(y, x, panel, lo, hi, in, out, opt)
	}
	grain := 1
	if w := in * out; w < minParallelOps {
		grain = (minParallelOps + w - 1) / w
	}
	tensor.ParallelFor(rows, grain, body)
}

// runRange computes output rows [lo, hi) in blocks of the dispatched
// variant's tile height; chunk boundaries never change any row's
// result (the block and row kernels share one per-row operation
// sequence).
func runRange(y, x, panel []float32, lo, hi, in, out int, opt Opt) {
	k := active
	if opt.NoFused && k.fused {
		k = twoRounding
	}
	for r := lo; r < hi; {
		rb := hi - r
		if rb > k.mr {
			rb = k.mr
		}
		blockRowsOf(k, y, x, panel, r, rb, in, out, opt)
		r += rb
	}
}

// blockRowsGeneric computes rb (≤ 4) consecutive output rows against
// every packed panel with the portable tier while the x rows stay hot
// in cache. Like its per-variant amd64 siblings it calls the
// microkernels directly — through a function-pointer field the
// stack-array-backed accumulator tile would escape, costing one heap
// allocation per block.
func blockRowsGeneric(y, x, panel []float32, r, rb, in, out int, opt Opt) {
	npan := (out + nr - 1) / nr
	for pj := 0; pj < npan; pj++ {
		o0 := pj * nr
		cols := out - o0
		if cols > nr {
			cols = nr
		}
		p := panel[pj*in*nr : (pj+1)*in*nr]
		if rb == 4 {
			var acc [4 * nr]float32
			initAcc(acc[:], o0, cols, opt)
			generic4x8(x[r*in:], p, in, acc[:])
			storeAcc(y, acc[:], r, 4, o0, cols, out, opt)
		} else {
			for i := 0; i < rb; i++ {
				var acc [nr]float32
				initAcc(acc[:nr], o0, cols, opt)
				generic1x8(x[(r+i)*in:], p, in, acc[:nr])
				storeAcc(y, acc[:nr], r+i, 1, o0, cols, out, opt)
			}
		}
	}
}

// initAcc seeds the accumulator tile: bias per column for prologue
// mode, zero otherwise (padded lanes always start at zero harmlessly —
// they are never stored).
func initAcc(acc []float32, o0, cols int, opt Opt) {
	if opt.Prologue && opt.Bias != nil {
		for j := 0; j < cols; j++ {
			b := opt.Bias[o0+j]
			for r := 0; r < len(acc)/nr; r++ {
				acc[r*nr+j] = b
			}
		}
	}
}

// storeAcc applies the epilogue bias and writes the valid columns of
// the accumulator tile to y.
func storeAcc(y, acc []float32, r, rows, o0, cols, out int, opt Opt) {
	epi := !opt.Prologue && opt.Bias != nil
	for i := 0; i < rows; i++ {
		a := acc[i*nr : i*nr+nr]
		yr := y[(r+i)*out+o0 : (r+i)*out+o0+cols]
		if epi {
			for j := range yr {
				yr[j] = a[j] + opt.Bias[o0+j]
			}
		} else {
			copy(yr, a[:cols])
		}
	}
}
