package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fp8quant/internal/harness"
)

// localWorkers is the local sweeps' worker count (and their GOMAXPROCS).
const localWorkers = 2

// setupProbes is how many extra set-ups a run measures besides those of
// its sweeps, so setup_s is a median of several samples.
const setupProbes = 9

// maxReps caps the sweeps of one untraced run.
const maxReps = 50

type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics, perLayer the traced run's;
// BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"sweep_s", "s"}, {"cpu_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"harness.cells", "count"}, {"harness.cells_failed", "count"},
	{"harness.cell_p50_ms", "ms"}, {"harness.cell_p75_ms", "ms"},
	{"harness.idle_pct", "%"}, {"harness.self_ms", "ms"},
	{"models.builds", "count"}, {"models.build_ms", "ms"},
	{"evalx.refs", "count"}, {"evalx.ref_ms", "ms"},
	{"evalx.ref_ms.planned", "ms"}, {"evalx.ref_ms.unplanned", "ms"},
	{"evalx.evals", "count"}, {"evalx.eval_ms", "ms"},
	{"evalx.eval_ms.planned", "ms"}, {"evalx.eval_ms.unplanned", "ms"},
	{"quant.quantize_calls", "count"}, {"quant.quantize_ms", "ms"},
	{"resultstore.writes", "count"}, {"resultstore.bytes_written", "bytes"},
	{"resultstore.save_ms", "ms"}, {"resultstore.hits", "count"}, {"resultstore.misses", "count"},
	{"coord.leases", "count"}, {"coord.pushes", "count"}, {"coord.waits", "count"},
	{"coord.non2xx", "count"}, {"coord.lease_p50_ms", "ms"}, {"coord.push_p50_ms", "ms"},
	{"coord.efficiency", "ratio"}, {"coord.tail_s", "s"},
	{"runtime.alloc_mb", "MB"}, {"runtime.gc_cycles", "count"}, {"runtime.heap_retained_mb", "MB"},
	{"host.probe_ms", "ms"}, {"trace.overhead_pct", "%"},
}

func metricsOf(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// sweepOut is one cold sweep as measured and checked.
type sweepOut struct {
	SweepS, SetupS, CPUS, RSSMB float64
	Cells                       cellSet
	Hits, Misses                int64
	AllocMB, GCs, RetainedMB    float64
	Reqs                        []reqRec
	Problems                    []string
}

func sweepSpec() harness.GridSpec {
	e, _ := harness.Get(sweepExp)
	return e.Spec()
}

// sweep runs one cold sweep of sel into a fresh store under dir, local
// or coordinated by workload, and checks every selected cell.
func (pb *bench) sweep(ctx context.Context, w workload, sel []string, dir string, traced bool) (sweepOut, error) {
	var o sweepOut
	store := filepath.Join(dir, "store")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return o, err
	}
	const mb = 1 << 20
	if w.coordinated {
		c, err := pb.coordSweep(ctx, store, sel, traced, false)
		if err != nil {
			return o, err
		}
		o = sweepOut{
			SweepS: c.SweepS, SetupS: c.SetupS, CPUS: c.CPUS, RSSMB: c.RSSMB,
			Hits: c.Stats.Hits, Misses: c.Stats.Misses,
			AllocMB: c.TotalAlloc / mb, GCs: c.NumGC, RetainedMB: c.HeapRetained / mb,
			Reqs: c.Reqs, Problems: c.Problems,
		}
	} else {
		out, st, err := pb.launchChild(ctx, dir, childJob{Mode: "sweep", Store: store, Models: sel, Workers: localWorkers})
		if err != nil {
			return o, err
		}
		o = sweepOut{
			SweepS: float64(out.EndNs-st.LaunchNs) / 1e9, SetupS: float64(out.DispatchNs-st.LaunchNs) / 1e9,
			CPUS: st.CPU, RSSMB: st.MaxRSSMB, Hits: out.Hits, Misses: out.Misses,
			AllocMB: float64(out.TotalAlloc) / mb, GCs: float64(out.NumGC), RetainedMB: float64(out.HeapRetained) / mb,
		}
	}
	if o.Hits != 0 {
		o.Problems = append(o.Problems, fmt.Sprintf("cold store served %d hits", o.Hits))
	}
	spec := sweepSpec()
	cells, err := checkCells(store, spec, spec.Select(filterFor(sel)), pb.expected)
	if err != nil {
		return o, err
	}
	o.Cells = cells
	o.Problems = append(o.Problems, cells.Problems...)
	return o, nil
}

// setupProbe measures one set-up of the workload without running the
// sweep: launch to first dispatched cell (local) or to first granted
// lease (coordinated).
func (pb *bench) setupProbe(ctx context.Context, w workload, sel []string, dir string) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	store := filepath.Join(dir, "store")
	if w.coordinated {
		c, err := pb.coordSweep(ctx, store, sel, false, true)
		return c.SetupS, err
	}
	out, st, err := pb.launchChild(ctx, dir, childJob{Mode: "setup", Store: store, Models: sel, Workers: localWorkers})
	if err != nil {
		return 0, err
	}
	return float64(out.DispatchNs-st.LaunchNs) / 1e9, nil
}

// untracedRun measures the end-to-end metrics: set-up probes, then cold
// sweeps (each over its own seeded selection) while the time budget
// allows. It reports the median of each metric, except peak_rss_mb: the
// run's peak is the largest of its sweeps'.
func (pb *bench) untracedRun(ctx context.Context, w workload, seed uint64, budget time.Duration, dir string, rec *runRecord) error {
	start := time.Now()
	var sweeps, cpus, rss, setups []float64
	sel0 := w.selection(seed, 0, false)
	for i := 0; i < setupProbes; i++ {
		s, err := pb.setupProbe(ctx, w, sel0, filepath.Join(dir, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return fmt.Errorf("set-up probe: %w", err)
		}
		setups = append(setups, s)
	}
	var last time.Duration
	for rep := 0; rep < maxReps && (rep == 0 || time.Since(start)+last <= budget); rep++ {
		t := time.Now()
		sel := w.selection(seed, rep, false)
		repDir := filepath.Join(dir, fmt.Sprintf("rep-%d", rep))
		o, err := pb.sweep(ctx, w, sel, repDir, false)
		if err != nil {
			return fmt.Errorf("sweep %d: %w", rep, err)
		}
		last = time.Since(t)
		sweeps, cpus, rss = append(sweeps, o.SweepS), append(cpus, o.CPUS), append(rss, o.RSSMB)
		setups = append(setups, o.SetupS)
		rec.Result.Attempted += o.Cells.Attempted
		rec.Result.Failed += o.Cells.Failed
		rec.Problems = append(rec.Problems, o.Problems...)
		rec.Provenance.Models = append(rec.Provenance.Models, sel)
		rec.Sweeps = append(rec.Sweeps, sweepSample{Models: sel, SweepS: o.SweepS, CPUS: o.CPUS, SetupS: o.SetupS, RSSMB: o.RSSMB})
		rec.Provenance.Digests = append(rec.Provenance.Digests, o.Cells.Digest)
		// The cells are checked; only the verdict is kept.
		if err := os.RemoveAll(repDir); err != nil {
			return err
		}
	}
	rec.Provenance.Repetitions = len(sweeps)
	rec.Provenance.SetupSamples = len(setups)
	rec.Result.Metrics = metricsOf(endToEnd, map[string]float64{
		"sweep_s": median(sweeps), "cpu_s": median(cpus),
		"setup_s": median(setups), "peak_rss_mb": maxOf(rss),
	})
	return os.RemoveAll(dir)
}

// tracedRun measures the per-layer metrics on the traced selection:
// one untraced cold sweep (runtime and store counters, the reference
// cells), for coord-mixed one coordinated sweep under the tracing
// handler, then the traced pass. Every traced cell must be
// byte-identical to the untraced sweep's.
func (pb *bench) tracedRun(ctx context.Context, w workload, seed uint64, dir string, rec *runRecord) error {
	sel := w.selection(seed, 0, true)
	spec := sweepSpec()
	idx := spec.Select(filterFor(sel))
	rec.Provenance.Models = [][]string{sel}
	rec.Provenance.Repetitions = 1
	if !p75Supported(len(idx)) {
		rec.Problems = append(rec.Problems, fmt.Sprintf("traced selection has %d cells: too few for a p75", len(idx)))
	}
	u, err := pb.sweep(ctx, w, sel, filepath.Join(dir, "untraced"), false)
	if err != nil {
		return fmt.Errorf("untraced sweep: %w", err)
	}
	rec.Result.Attempted += u.Cells.Attempted
	rec.Result.Failed += u.Cells.Failed
	rec.Problems = append(rec.Problems, u.Problems...)
	rec.Provenance.Digests = append(rec.Provenance.Digests, u.Cells.Digest)
	vals := map[string]float64{
		"resultstore.hits": float64(u.Hits), "resultstore.misses": float64(u.Misses),
		"runtime.alloc_mb": u.AllocMB, "runtime.gc_cycles": u.GCs, "runtime.heap_retained_mb": u.RetainedMB,
		"host.probe_ms": rec.Provenance.HostProbeMs,
	}
	spans := map[string][]span{}
	var lanes [][]int
	workers := localWorkers
	if w.coordinated {
		c, err := pb.sweep(ctx, w, sel, filepath.Join(dir, "coord-traced"), true)
		if err != nil {
			return fmt.Errorf("traced coordinated sweep: %w", err)
		}
		rec.Result.Attempted += c.Cells.Attempted
		rec.Result.Failed += c.Cells.Failed
		rec.Problems = append(rec.Problems, c.Problems...)
		if bad := sameCells(u.Cells.Payloads, c.Cells.Payloads); len(bad) > 0 {
			rec.Result.Failed += len(bad)
			rec.Problems = append(rec.Problems, fmt.Sprintf("traced coordinated sweep: %d cells differ from the untraced sweep", len(bad)))
		}
		for k, v := range coordMetrics(c.Reqs, c.SweepS) {
			vals[k] = v
		}
		vals["trace.overhead_pct"] = 100 * (c.SweepS/u.SweepS - 1)
		lanes = leaseLanes(c.Reqs)
		workers = len(lanes)
		spans["coord"] = coordSpans(c.Reqs)
	}
	tdir := filepath.Join(dir, "traced")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return err
	}
	store := filepath.Join(tdir, "store")
	out, st, err := pb.launchChild(ctx, tdir, childJob{Mode: "traced", Store: store, Models: sel, Workers: workers, Lanes: lanes})
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	tc, err := checkCells(store, spec, idx, pb.expected)
	if err != nil {
		return err
	}
	rec.Result.Attempted += tc.Attempted
	rec.Result.Failed += tc.Failed
	rec.Problems = append(rec.Problems, tc.Problems...)
	rec.Problems = append(rec.Problems, spanSummary(out.Spans, spec)...)
	bad := sameCells(u.Cells.Payloads, tc.Payloads)
	if len(bad) > 0 {
		rec.Result.Failed += len(bad)
		rec.Problems = append(rec.Problems, fmt.Sprintf("traced pass: %d cells differ from the untraced sweep", len(bad)))
	}
	for k, v := range layerMetrics(out.Spans, workers, out.EndNs-out.DispatchNs) {
		vals[k] = v
	}
	vals["harness.cells_failed"] += float64(len(bad))
	if !w.coordinated {
		vals["trace.overhead_pct"] = 100 * (float64(out.EndNs-st.LaunchNs)/1e9/u.SweepS - 1)
	}
	spans["traced_pass"] = out.Spans
	if err := writeSpans(filepath.Join(pb.work, fmt.Sprintf("spans-%s-s%d.json", w.name, seed)), spans); err != nil {
		return err
	}
	rec.Result.Metrics = metricsOf(perLayer, vals)
	return os.RemoveAll(dir)
}

// writeSpans writes a traced run's spans out once the run has ended.
func writeSpans(path string, spans map[string][]span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
