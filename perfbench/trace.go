package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fp8quant/internal/data"
	"fp8quant/internal/evalx"
	"fp8quant/internal/harness"
	"fp8quant/internal/models"
	"fp8quant/internal/nn"
	"fp8quant/internal/quant"
	"fp8quant/internal/resultstore"
)

// span is one timed call at a layer boundary. Spans of one cell share
// Cell (the grid index); Parent is the enclosing span's ID (0 = root).
// Start and End are nanoseconds since the traced pass began.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Cell    int    `json:"cell"`
	Lane    int    `json:"lane"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Planned bool   `json:"planned,omitempty"`
	Bytes   int    `json:"bytes,omitempty"`
	Failed  bool   `json:"failed,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps one lane's spans in memory; lanes never share one.
type recorder struct {
	t0    time.Time
	lane  int
	ids   *atomic.Int64
	spans []span
}

// begin opens a span and returns its index for end.
func (r *recorder) begin(name string, parent, cell int) int {
	r.spans = append(r.spans, span{
		ID: int(r.ids.Add(1)), Parent: parent, Cell: cell, Lane: r.lane,
		Name: name, Start: time.Since(r.t0).Nanoseconds(),
	})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) { r.spans[i].End = time.Since(r.t0).Nanoseconds() }

// sweepRecipes mirrors the harness's Table-2 label -> recipe table. It
// is a copy on purpose: the traced pass must call the same public
// constructors in the same way, and the fidelity check (traced cells
// byte-identical to untraced ones) catches any drift from the harness.
var sweepRecipes = map[string]func(*models.Network) quant.Recipe{
	"E5M2 Direct":  func(*models.Network) quant.Recipe { return quant.StandardFP8(quant.E5M2) },
	"E4M3 Static":  func(*models.Network) quant.Recipe { return quant.StandardFP8(quant.E4M3) },
	"E4M3 Dynamic": func(*models.Network) quant.Recipe { return quant.DynamicFP8(quant.E4M3) },
	"E3M4 Static":  func(*models.Network) quant.Recipe { return quant.StandardFP8(quant.E3M4) },
	"E3M4 Dynamic": func(*models.Network) quant.Recipe { return quant.DynamicFP8(quant.E3M4) },
	"INT8 Static CV | Dynamic NLP": func(net *models.Network) quant.Recipe {
		return quant.StandardINT8(net.Meta.Domain != models.CV)
	},
}

// refCache holds FP32 references, computed once per model per cache —
// one cache per process for a local sweep, one per worker lane when
// replaying a coordinated sweep (each worker is its own process there).
type refCache struct {
	mu   sync.Mutex
	refs map[string]*refOnce
}

type refOnce struct {
	once sync.Once
	ref  evalx.Reference
}

func newRefCache() *refCache { return &refCache{refs: map[string]*refOnce{}} }

func (c *refCache) get(name string) *refOnce {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.refs[name]
	if !ok {
		e = &refOnce{}
		c.refs[name] = e
	}
	return e
}

// planPools mirrors the harness's per-model plan pools.
type planPools struct{ m sync.Map }

func (pp *planPools) get(name string) (*nn.Plan, func(*nn.Plan)) {
	pi, _ := pp.m.LoadOrStore(name, &sync.Pool{})
	pool := pi.(*sync.Pool)
	if v := pool.Get(); v != nil {
		return v.(*nn.Plan), func(p *nn.Plan) { pool.Put(p) }
	}
	return nn.NewPlan(nil), func(p *nn.Plan) { pool.Put(p) }
}

// tracedPass evaluates grid cells the way the harness's sweep cell
// does, from public calls only, recording a span around each call.
// lanes lists the cells each concurrent lane runs in order; with
// shared set, the lanes instead pull cells from lanes[0] in order (the
// local executor's claim order) and share one reference cache.
type tracedPass struct {
	spec    harness.GridSpec
	store   *resultstore.Store
	workers int
	shared  bool
	lanes   [][]int
}

// run executes the pass and returns every lane's spans.
func (tp tracedPass) run() []span {
	t0 := time.Now()
	var ids atomic.Int64
	var pools planPools
	shared := newRefCache()
	nLanes := len(tp.lanes)
	if tp.shared {
		nLanes = tp.workers
	}
	recs := make([]*recorder, nLanes)
	var next atomic.Int64
	var wg sync.WaitGroup
	for l := 0; l < nLanes; l++ {
		recs[l] = &recorder{t0: t0, lane: l, ids: &ids}
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			rec := recs[l]
			if !tp.shared {
				refs := newRefCache()
				for _, idx := range tp.lanes[l] {
					tp.cell(rec, refs, &pools, idx)
				}
				return
			}
			for k := int(next.Add(1)) - 1; k < len(tp.lanes[0]); k = int(next.Add(1)) - 1 {
				tp.cell(rec, shared, &pools, tp.lanes[0][k])
			}
		}(l)
	}
	wg.Wait()
	var out []span
	for _, r := range recs {
		out = append(out, r.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// cell mirrors one sweep cell: Build, InstallPlan, the FP32 reference
// (once per model per cache), PaperRecipe -> Quantize ->
// AccuracyAgainst -> Release, then EncodeCell + SaveCell.
func (tp tracedPass) cell(rec *recorder, refs *refCache, pools *planPools, idx int) {
	c := tp.spec.CellAt(idx)
	name, label := c.Values[0], c.Values[1]
	ci := rec.begin("harness.cell", 0, idx)
	root := rec.spans[ci].ID
	defer func() {
		if p := recover(); p != nil {
			// Close whatever span the panic interrupted.
			rec.spans[ci].Failed = true
			for i := ci + 1; i < len(rec.spans); i++ {
				if rec.spans[i].End == 0 {
					rec.end(i)
				}
			}
		}
		rec.end(ci)
	}()
	si := rec.begin("models.build", root, idx)
	net, err := models.Build(name)
	rec.end(si)
	mk, ok := sweepRecipes[label]
	if err != nil || !ok {
		rec.spans[ci].Failed = true
		return
	}
	planned := net.Plannable()
	var plan *nn.Plan
	var put func(*nn.Plan)
	if planned {
		si = rec.begin("harness.install_plan", root, idx)
		plan, put = pools.get(name)
		net.InstallPlan(plan)
		rec.end(si)
	}
	ro := refs.get(name)
	ro.once.Do(func() {
		si := rec.begin("evalx.ref", root, idx)
		ro.ref = evalx.ComputeReference(net)
		rec.end(si)
		rec.spans[si].Planned = planned
	})
	base := mk(net)
	r := evalx.PaperRecipe(base, net)
	si = rec.begin("quant.quantize", root, idx)
	h := quant.Quantize(net, net.Data, r)
	rec.end(si)
	si = rec.begin("evalx.eval", root, idx)
	acc := evalx.AccuracyAgainst(net, ro.ref)
	rec.end(si)
	rec.spans[si].Planned = planned
	si = rec.begin("quant.release", root, idx)
	h.Release()
	rec.end(si)
	if planned {
		net.InstallPlan(nil)
		plan.Bind(nil)
		put(plan)
	}
	res := evalx.Result{
		Model: net.Meta.Name, Domain: net.Meta.Domain, Recipe: base.Name(),
		BaseAcc: 1.0, QAcc: acc, RelLoss: data.RelativeLoss(1.0, acc), Pass: data.Passes(1.0, acc),
	}
	k := tp.spec.CellKey(c)
	si = rec.begin("resultstore.encode", root, idx)
	b, err := resultstore.EncodeCell(k, res)
	rec.end(si)
	rec.spans[si].Bytes = len(b)
	if err != nil {
		rec.spans[ci].Failed = true
		return
	}
	si = rec.begin("resultstore.save", root, idx)
	err = tp.store.SaveCell(k, res)
	rec.end(si)
	if err != nil {
		rec.spans[ci].Failed = true
		rec.spans[si].Failed = true
	}
}

// selfTimes returns each span's duration minus the part of it covered
// by its child spans, keyed by span ID.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// layerMetrics folds a traced pass's spans into the per-layer metrics
// of the models, evalx, quant, resultstore and harness layers; the
// harness's own share is the cell span's self time (recipe
// specialization, result assembly, waiting on a shared reference) plus
// plan installation. workers is the concurrency the pass ran at, wallNs
// its wall time.
func layerMetrics(spans []span, workers int, wallNs int64) map[string]float64 {
	self := selfTimes(spans)
	m := map[string]float64{}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	var cells []float64
	var cellSum int64
	for _, s := range spans {
		sm := ms(self[s.ID])
		switch s.Name {
		case "harness.cell":
			cells = append(cells, ms(s.dur()))
			cellSum += s.dur()
			m["harness.cells"]++
			m["harness.self_ms"] += sm
			if s.Failed {
				m["harness.cells_failed"]++
			}
		case "harness.install_plan":
			m["harness.self_ms"] += sm
		case "models.build":
			m["models.builds"]++
			m["models.build_ms"] += sm
		case "evalx.ref":
			m["evalx.refs"]++
			m["evalx.ref_ms"] += sm
			m["evalx.ref_ms."+plannedKey(s)] += sm
		case "evalx.eval":
			m["evalx.evals"]++
			m["evalx.eval_ms"] += sm
			m["evalx.eval_ms."+plannedKey(s)] += sm
		case "quant.quantize":
			m["quant.quantize_calls"]++
			m["quant.quantize_ms"] += sm
		case "quant.release":
			m["quant.quantize_ms"] += sm
		case "resultstore.encode":
			m["resultstore.save_ms"] += sm
			m["resultstore.bytes_written"] += float64(s.Bytes)
		case "resultstore.save":
			m["resultstore.save_ms"] += sm
			if !s.Failed {
				m["resultstore.writes"]++
			}
		}
	}
	m["harness.cell_p50_ms"], _ = percentile(cells, 0.50)
	m["harness.cell_p75_ms"], _ = percentile(cells, 0.75)
	if wallNs > 0 && workers > 0 {
		m["harness.idle_pct"] = 100 * (1 - float64(cellSum)/(float64(workers)*float64(wallNs)))
	}
	return m
}

func plannedKey(s span) string {
	if s.Planned {
		return "planned"
	}
	return "unplanned"
}

// p75Supported reports whether a traced pass of n cells may report a
// per-cell p75 (at least minBeyond cells beyond it).
func p75Supported(n int) bool {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	_, ok := percentile(xs, 0.75)
	return ok
}

// spanSummary names the traced pass's failed cells for diagnostics.
func spanSummary(spans []span, spec harness.GridSpec) []string {
	var out []string
	for _, s := range spans {
		if s.Name == "harness.cell" && s.Failed {
			out = append(out, fmt.Sprintf("traced cell %s failed", spec.KeyString(spec.CellAt(s.Cell))))
		}
	}
	return out
}
