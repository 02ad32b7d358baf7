package quant

import (
	"math"

	"fp8quant/internal/data"
	"fp8quant/internal/fp8"
	"fp8quant/internal/nn"
	"fp8quant/internal/tensor"
)

// Model is the contract the quantization workflow needs from a network:
// a module tree to rewrite and a forward runner for calibration.
type Model interface {
	// Root returns the module tree.
	Root() nn.Module
	// Run executes a forward pass, returning the model output.
	Run(s data.Sample) *tensor.Tensor
	// IsCNN reports whether the first/last-operator FP32 exception of
	// the standard scheme applies (convolutional networks only).
	IsCNN() bool
}

// Handle tracks the reversible state of a quantized model. Release
// restores the original FP32 model exactly.
type Handle struct {
	states    []*nn.QState
	weights   map[*tensor.Tensor][]float32
	rounded   map[*tensor.Tensor]bool
	bnBackups map[*nn.BatchNorm2d][2][]float32
	// Report summarizes what was quantized, for logs and tests.
	Report Report
}

// Report describes the outcome of a Quantize call.
type Report struct {
	// QuantizedOps counts fake-quantized leaf modules by kind.
	QuantizedOps map[string]int
	// FallbackOps lists module paths kept in FP32.
	FallbackOps []string
	// FirstOp and LastOp are the excluded first/last operator paths
	// (empty when not applicable).
	FirstOp, LastOp string
}

// Release restores FP32 weights, BatchNorm statistics, and removes all
// quantization hooks.
func (h *Handle) Release() {
	for w, master := range h.weights {
		copy(w.Data, master)
	}
	for bn, b := range h.bnBackups {
		copy(bn.Mean, b[0])
		copy(bn.Var, b[1])
	}
	for _, q := range h.states {
		q.Reset()
	}
}

// target is one quantization site: a QState plus the metadata needed to
// calibrate and convert it.
type target struct {
	path    string
	kind    string
	qs      *nn.QState
	output  bool // quantize the output instead of the input
	obs     Observer
	weight  *tensor.Tensor // non-nil for parametric modules
	wgtDim  int
	linear  *nn.Linear // non-nil for SmoothQuant-eligible sites
	colMax  []float64  // per-input-channel activation absmax
	smooth  []float64  // per-input-channel SmoothQuant divisors
	obsOnly bool
}

// Quantize applies recipe r to model m, calibrating on ds. It returns
// a Handle whose Release undoes everything. The model is modified in
// place (fake-quant hooks installed, weights rounded).
func Quantize(m Model, ds data.Dataset, r Recipe) *Handle {
	h := &Handle{
		weights:   make(map[*tensor.Tensor][]float32),
		rounded:   make(map[*tensor.Tensor]bool),
		bnBackups: make(map[*nn.BatchNorm2d][2][]float32),
		Report:    Report{QuantizedOps: make(map[string]int)},
	}
	if r.Act == FP32 && r.Wgt == FP32 {
		return h
	}

	targets, bns := collectTargets(m, r, h)

	// Phase 1: calibration (static approaches that need ranges).
	needCalib := r.Approach == Static && r.Act != FP32
	if needCalib || r.SmoothQuant {
		for _, t := range targets {
			t.attachObservers(r)
		}
		runBatches(m, ds, r.CalibBatches)
		for _, t := range targets {
			t.qs.Observe = nil
			t.qs.ObserveOutput = nil
		}
	}

	// Phase 2: convert — SmoothQuant folding, weight rounding, hook
	// installation.
	for _, t := range targets {
		t.convert(r, h)
	}

	// Phase 3: BatchNorm re-calibration on the quantized graph.
	if r.BNCalib && len(bns) > 0 {
		for _, bn := range bns {
			h.bnBackups[bn] = [2][]float32{
				append([]float32(nil), bn.Mean...),
				append([]float32(nil), bn.Var...),
			}
		}
		// Warm-started statistics converge in a few cycles; cap the
		// loop tightly since each cycle costs full calibration passes
		// (and with large calibration sets a single pass already
		// averages away staleness).
		cycles := 4
		if r.BNCalibBatches >= 32 {
			cycles = 2
		}
		nn.CalibrateBatchNorms(bns, cycles, func() { runBatches(m, ds, r.BNCalibBatches) })
	}
	return h
}

// runBatches feeds n batches (cycling if the dataset is smaller)
// through the model.
func runBatches(m Model, ds data.Dataset, n int) {
	if n <= 0 {
		n = 1
	}
	total := ds.Batches()
	if total == 0 {
		return
	}
	for i := 0; i < n; i++ {
		m.Run(ds.Batch(i % total))
	}
}

// collectTargets walks the model and builds the quantization site list
// according to the recipe's scheme.
func collectTargets(m Model, r Recipe, h *Handle) ([]*target, []*nn.BatchNorm2d) {
	type entry struct {
		path string
		mod  nn.Module
	}
	var order []entry
	var bns []*nn.BatchNorm2d
	nn.Walk(m.Root(), func(path string, mod nn.Module) {
		order = append(order, entry{path, mod})
		if bn, ok := mod.(*nn.BatchNorm2d); ok {
			bns = append(bns, bn)
		}
	})

	// First conv / last linear exclusion (CNNs, standard scheme).
	firstConv, lastLinear := "", ""
	if m.IsCNN() && !r.QuantFirstLast {
		for _, e := range order {
			if _, ok := e.mod.(*nn.Conv2d); ok {
				firstConv = e.path
				break
			}
		}
		for i := len(order) - 1; i >= 0; i-- {
			if _, ok := order[i].mod.(*nn.Linear); ok {
				lastLinear = order[i].path
				break
			}
		}
	}
	h.Report.FirstOp, h.Report.LastOp = firstConv, lastLinear

	var targets []*target
	add := func(t *target) { targets = append(targets, t) }
	for _, e := range order {
		if r.Fallback[e.path] {
			h.Report.FallbackOps = append(h.Report.FallbackOps, e.path)
			continue
		}
		if e.path == firstConv || e.path == lastLinear {
			h.Report.FallbackOps = append(h.Report.FallbackOps, e.path)
			continue
		}
		switch mod := e.mod.(type) {
		case *nn.Linear:
			add(&target{path: e.path, kind: mod.Kind(), qs: &mod.QS,
				weight: mod.W, wgtDim: 0, linear: mod})
		case *nn.Conv2d:
			add(&target{path: e.path, kind: mod.Kind(), qs: &mod.QS,
				weight: mod.W, wgtDim: 0})
		case *nn.Conv1d:
			add(&target{path: e.path, kind: mod.Kind(), qs: &mod.QS,
				weight: mod.W, wgtDim: 0})
		case *nn.Embedding:
			t := &target{path: e.path, kind: mod.Kind(), qs: &mod.QS,
				weight: mod.W, wgtDim: 0, output: true}
			// Standard scheme: weight-only; extended also quantizes
			// the gathered output tensor.
			t.obsOnly = !r.ExtendedOps
			add(t)
		case *nn.EmbeddingBag:
			t := &target{path: e.path, kind: mod.Kind(), qs: &mod.QS,
				weight: mod.W, wgtDim: 0, output: true}
			t.obsOnly = !r.ExtendedOps
			add(t)
		case *nn.LayerNorm:
			if r.ExtendedOps {
				add(&target{path: e.path, kind: mod.Kind(), qs: &mod.QS, output: true})
			}
		case *nn.RMSNorm:
			if r.ExtendedOps {
				add(&target{path: e.path, kind: mod.Kind(), qs: &mod.QS, output: true})
			}
		case *nn.GroupNorm:
			if r.ExtendedOps {
				add(&target{path: e.path, kind: mod.Kind(), qs: &mod.QS, output: true})
			}
		case *nn.BatchNorm2d:
			if r.ExtendedOps {
				add(&target{path: e.path, kind: mod.Kind(), qs: &mod.QS, output: true})
			}
		case *nn.AddOp:
			if r.ExtendedOps {
				add(&target{path: e.path + "#a", kind: mod.Kind(), qs: &mod.QA})
				add(&target{path: e.path + "#b", kind: mod.Kind(), qs: &mod.QB})
			}
		case *nn.MulOp:
			if r.ExtendedOps {
				add(&target{path: e.path + "#a", kind: mod.Kind(), qs: &mod.QA})
				add(&target{path: e.path + "#b", kind: mod.Kind(), qs: &mod.QB})
			}
		case *nn.MatMulOp:
			if r.ExtendedOps {
				add(&target{path: e.path + "#a", kind: mod.Kind(), qs: &mod.QA})
				add(&target{path: e.path + "#b", kind: mod.Kind(), qs: &mod.QB})
			}
		case *nn.BatchMatMulOp:
			if r.ExtendedOps {
				add(&target{path: e.path + "#a", kind: mod.Kind(), qs: &mod.QA})
				add(&target{path: e.path + "#b", kind: mod.Kind(), qs: &mod.QB})
			}
		}
	}
	return targets, bns
}

// attachObservers wires calibration hooks for the target.
func (t *target) attachObservers(r Recipe) {
	t.obs = NewObserver(r.Calib)
	obs := t.obs
	if t.output {
		t.qs.ObserveOutput = obs.Observe
	} else if t.linear != nil && r.SmoothQuant {
		in := t.linear.In
		t.colMax = make([]float64, in)
		cm := t.colMax
		t.qs.Observe = func(v []float32) {
			obs.Observe(v)
			for i, x := range v {
				a := math.Abs(float64(x))
				if a > cm[i%in] {
					cm[i%in] = a
				}
			}
		}
	} else {
		t.qs.Observe = obs.Observe
	}
}

// convert installs the final quantization hooks and rounds weights.
func (t *target) convert(r Recipe, h *Handle) {
	h.states = append(h.states, t.qs)

	// SmoothQuant folding on Linear layers (before weight rounding).
	if t.linear != nil && r.SmoothQuant && t.colMax != nil {
		t.smooth = applySmoothQuant(t.linear, t.colMax, r.SmoothAlpha, h)
	}

	// Weight rounding (once per tensor, even when shared/tied).
	if t.weight != nil && r.Wgt != FP32 && !h.rounded[t.weight] {
		h.rounded[t.weight] = true
		var master []float32
		if r.Approach == Direct && r.Wgt.IsFP8() {
			master = quantizeWeightDirect(t.weight, r.Wgt.Format())
		} else {
			master = QuantizeWeightPerChannel(t.weight, t.wgtDim, r.Wgt)
		}
		// SmoothQuant may have saved the true pre-smoothing master
		// already; never overwrite it.
		if _, saved := h.weights[t.weight]; !saved {
			h.weights[t.weight] = master
		}
	}

	// Activation hooks.
	if r.Act == FP32 || t.obsOnly {
		return
	}
	threshold, mn, mx := t.calibrated(r)
	fn := ActQuantFunc(r, threshold, mn, mx)
	if fn == nil {
		return
	}
	// The fused-packing form rides along on input sites; SmoothQuant's
	// per-column divisors are position-dependent (i%in over the flat
	// slice), which the chunkable contract cannot express, so smoothed
	// sites stay on the copy path.
	fused := ActQuantFused(r, threshold, mn, mx)
	if t.smooth != nil {
		fn = composeSmooth(t.smooth, fn)
		fused = nil
	}
	if t.output {
		t.qs.Output = fn
	} else {
		t.qs.Input = fn
		t.qs.InputFused = fused
	}
	h.Report.QuantizedOps[t.kind]++
}

// calibrated resolves the threshold and range for a static target.
func (t *target) calibrated(r Recipe) (threshold, mn, mx float64) {
	if t.obs == nil {
		return 0, 0, 0
	}
	mk := func(th float64) Quantizer {
		if r.Act == INT8 {
			return fp8.NewInt8Symmetric(th)
		}
		return NewScaledFP8(r.Act.Format(), th)
	}
	threshold = CalibratedThreshold(t.obs, r.Calib, mk)
	mn, mx = t.obs.Range()
	if t.smooth != nil {
		// Ranges shift after smoothing: recompute from column maxima.
		threshold = 0
		for j, c := range t.colMax {
			s := t.smooth[j]
			if v := c / s; v > threshold {
				threshold = v
			}
		}
		mn, mx = -threshold, threshold
	}
	return threshold, mn, mx
}

// applySmoothQuant folds per-channel smoothing scales into the weight
// (W[:, j] *= s_j) and returns the divisors applied to the activation.
// s_j = actMax_j^alpha / wMax_j^(1-alpha), the SmoothQuant migration.
func applySmoothQuant(l *nn.Linear, colMax []float64, alpha float64, h *Handle) []float64 {
	if alpha <= 0 || alpha >= 1 {
		alpha = 0.5
	}
	in, out := l.In, l.Out
	// Per-input-channel weight absmax (over output rows).
	wMax := make([]float64, in)
	for o := 0; o < out; o++ {
		row := l.W.Data[o*in : (o+1)*in]
		for j, v := range row {
			a := math.Abs(float64(v))
			if a > wMax[j] {
				wMax[j] = a
			}
		}
	}
	s := make([]float64, in)
	for j := range s {
		if colMax[j] == 0 || wMax[j] == 0 {
			s[j] = 1
			continue
		}
		v := math.Pow(colMax[j], alpha) / math.Pow(wMax[j], 1-alpha)
		if v < 1e-5 {
			v = 1e-5
		} else if v > 1e5 {
			v = 1e5
		}
		s[j] = v
	}
	// Save the pre-smoothing weight exactly once.
	if _, saved := h.weights[l.W]; !saved {
		h.weights[l.W] = append([]float32(nil), l.W.Data...)
	}
	for o := 0; o < out; o++ {
		row := l.W.Data[o*in : (o+1)*in]
		for j := range row {
			row[j] *= float32(s[j])
		}
	}
	return s
}

// composeSmooth divides activations by the smoothing scales before the
// quantization function runs.
func composeSmooth(s []float64, fn nn.QuantFunc) nn.QuantFunc {
	in := len(s)
	inv := make([]float32, in)
	for j, v := range s {
		inv[j] = float32(1 / v)
	}
	return func(dst, src []float32) {
		for i, v := range src {
			dst[i] = v * inv[i%in]
		}
		fn(dst, dst)
	}
}

// quantizeWeightDirect rounds weights straight to the FP8 grid with no
// scaling (the E5M2 Direct path), returning the restore copy. Large
// tensors quantize across all cores through the fast codec.
func quantizeWeightDirect(w *tensor.Tensor, f fp8.Format) []float32 {
	master := append([]float32(nil), w.Data...)
	f.QuantizeSliceParallel(w.Data, w.Data)
	return master
}
