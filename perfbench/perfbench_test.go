package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fp8quant/internal/evalx"
	"fp8quant/internal/resultstore"
)

func TestSelectionDeterministic(t *testing.T) {
	for _, w := range workloads {
		distinct := map[string]bool{}
		for seed := uint64(1); seed <= 20; seed++ {
			for _, traced := range []bool{false, true} {
				a := w.selection(seed, 0, traced)
				if b := w.selection(seed, 0, traced); !reflect.DeepEqual(a, b) {
					t.Fatalf("%s seed %d: selection not deterministic: %v vs %v", w.name, seed, a, b)
				}
				if traced {
					if n := len(sweepSpec().Select(filterFor(a))); n < minTraceCells {
						t.Errorf("%s seed %d: traced selection has %d cells, want >= %d", w.name, seed, n, minTraceCells)
					}
					continue
				}
				distinct[b2s(a)] = true
				total, want := 0.0, 0.0
				for _, p := range w.parts {
					want += p.target
				}
				for _, m := range a {
					total += zooCosts[m].cpu
				}
				if total < 0.94*want || total > 1.06*want {
					t.Errorf("%s seed %d: estimated cost %.2f, want ~%.2f", w.name, seed, total, want)
				}
			}
		}
		if len(distinct) < 10 {
			t.Errorf("%s: only %d distinct selections over 20 seeds", w.name, len(distinct))
		}
	}
}

func TestSelectionStaysInPool(t *testing.T) {
	w, err := findWorkload("coord-mixed")
	if err != nil {
		t.Fatal(err)
	}
	cnn := map[string]bool{}
	for _, m := range bnCNNPool() {
		cnn[m] = true
	}
	if len(bnCNNPool()) != 26 || len(nlpAudioPool()) != 40 {
		t.Fatalf("pools: %d BN CNNs, %d NLP+Audio models; want 26 and 40", len(bnCNNPool()), len(nlpAudioPool()))
	}
	for seed := uint64(1); seed <= 20; seed++ {
		sel := w.selection(seed, 0, false)
		n := 0
		for _, m := range sel {
			if cnn[m] {
				n++
			}
		}
		if len(sel) != 10 || n != 2 {
			t.Errorf("seed %d: %d models with %d BN CNNs, want 10 with 2", seed, len(sel), n)
		}
	}
}

func b2s(xs []string) string {
	b, _ := json.Marshal(xs)
	return string(b)
}

func TestPercentileRule(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	if v, ok := percentile(mk(39), 0.75); ok || v != 30 {
		t.Errorf("39 cells: p75 = %v reportable=%v, want 30 and not reportable (9 beyond)", v, ok)
	}
	if v, ok := percentile(mk(40), 0.75); !ok || v != 30 {
		t.Errorf("40 cells: p75 = %v reportable=%v, want 30 and reportable (10 beyond)", v, ok)
	}
	if _, ok := percentile(mk(3), 0.5); !ok {
		t.Error("a median is always reportable")
	}
	if p75Supported(minTraceCells-1) || !p75Supported(minTraceCells) {
		t.Errorf("p75Supported disagrees with minTraceCells = %d", minTraceCells)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "harness.cell", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "models.build", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "quant.quantize", Start: 30, End: 60}, // overlaps build
		{ID: 4, Parent: 1, Name: "evalx.eval", Start: 90, End: 120},    // clipped to the cell
	}
	self := selfTimes(spans)
	if self[1] != 100-50-10 || self[2] != 30 || self[3] != 30 {
		t.Errorf("self times = %v, want cell 40, build 30, quantize 30", self)
	}
}

func TestDigestCheckFailsOnCorruptedCell(t *testing.T) {
	dir := t.TempDir()
	s, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := sweepSpec()
	sel := spec.Select(filterFor([]string{"dlrm_criteo"}))
	expected := map[string]string{}
	for i, idx := range sel {
		c := spec.CellAt(idx)
		k := spec.CellKey(c)
		r := evalx.Result{Model: c.Values[0], Recipe: c.Values[1], BaseAcc: 1, QAcc: 1 - float64(i)/100}
		if err := s.SaveCell(k, r); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(s.CellPath(k))
		if err != nil {
			t.Fatal(err)
		}
		expected[k.Fingerprint()] = payloadSum(b)
	}
	clean, err := checkCells(dir, spec, sel, expected)
	if err != nil || clean.Failed != 0 || clean.Attempted != len(sel) {
		t.Fatalf("clean store: %+v, %v", clean, err)
	}
	// Corrupt one cell's value, keeping the envelope valid JSON.
	k := spec.CellKey(spec.CellAt(sel[2]))
	if err := s.SaveCell(k, evalx.Result{Model: "dlrm_criteo", QAcc: 0.5}); err != nil {
		t.Fatal(err)
	}
	bad, err := checkCells(dir, spec, sel, expected)
	if err != nil {
		t.Fatal(err)
	}
	if bad.Failed != 1 || bad.Digest == clean.Digest {
		t.Errorf("one corrupted cell: failed=%d (want 1), digest changed=%v; problems %v", bad.Failed, bad.Digest != clean.Digest, bad.Problems)
	}
	if diff := sameCells(clean.Payloads, bad.Payloads); len(diff) != 1 || diff[0] != k.Fingerprint() {
		t.Errorf("sameCells = %v, want just %s", diff, k.Fingerprint())
	}
	if none, _ := checkCells(dir, spec, sel, nil); none.Failed != len(sel) {
		t.Errorf("no digest table for the variant: failed=%d, want all %d", none.Failed, len(sel))
	}
}

func TestExpectedDigestsCoverTheGrid(t *testing.T) {
	tab, err := loadDigests(expectedJSON)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Schema != resultstore.SchemaVersion {
		t.Fatalf("digest table schema %d, store schema %d: re-record the digests", tab.Schema, resultstore.SchemaVersion)
	}
	spec := sweepSpec()
	for _, v := range []string{"avx2", "sse", "generic"} {
		cells := tab.Variants[v]
		for i := 0; i < spec.NumCells(); i++ {
			if _, ok := cells[spec.CellKey(spec.CellAt(i)).Fingerprint()]; !ok {
				t.Fatalf("variant %s lacks cell %s", v, spec.KeyString(spec.CellAt(i)))
			}
		}
	}
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not found next to perfbench/")
	}
	type jsonMetric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []jsonMetric            `json:"end_to_end"`
		PerLayer  []jsonMetric            `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, code has %v", names, want)
	}
	check := func(kind string, got []jsonMetric, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics, code has %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d] = %s/%s, code has %s/%s", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestCoordMixedNoRetryTail runs a small coordinated sweep with real
// fp8bench worker processes and checks that both exit on StatusDone
// promptly after completion, with no requests refused.
func TestCoordMixedNoRetryTail(t *testing.T) {
	if testing.Short() {
		t.Skip("builds fp8bench and runs worker processes")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "fp8bench")
	build := exec.Command("go", "build", "-o", bin, "fp8quant/cmd/fp8bench")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building fp8bench: %v\n%s", err, out)
	}
	pb := &bench{fp8bench: bin, work: dir}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	sel := []string{"dlrm_criteo", "distilbert_sst2"}
	out, err := pb.coordSweep(ctx, filepath.Join(dir, "store"), sel, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Problems) > 0 {
		t.Fatalf("problems: %v", out.Problems)
	}
	// An idle worker polls at the coordinator's 1s wait hint (plus up
	// to 50% jitter); anything longer is a retry tail.
	if out.DrainS > 2.5 {
		t.Errorf("workers took %.2fs to exit after completion", out.DrainS)
	}
	m := coordMetrics(out.Reqs, out.SweepS)
	if m["coord.leases"] != 12 || m["coord.pushes"] != 12 || m["coord.non2xx"] != 0 {
		t.Errorf("coord metrics %v: want 12 leases, 12 pushes, no refusals", m)
	}
	if out.SetupS <= 0 || out.SetupS >= out.SweepS {
		t.Errorf("setup %.4fs outside (0, sweep %.4fs)", out.SetupS, out.SweepS)
	}
	lanes := leaseLanes(out.Reqs)
	n := 0
	for _, l := range lanes {
		n += len(l)
	}
	if n != 12 {
		t.Errorf("lease lanes hold %d cells, want 12", n)
	}
}

func TestCompareRefusesMixedVariants(t *testing.T) {
	dir := t.TempDir()
	write := func(name, variant string, sweep float64) string {
		path := filepath.Join(dir, name)
		rec := runRecord{
			Provenance: provenance{Workload: "sweep-nlp", Seed: 1, KernelVariant: variant},
			Result:     result{Correct: true, Attempted: 1, Metrics: map[string]metric{"sweep_s": {Value: sweep, Unit: "s"}}},
		}
		if err := appendRecord(path, rec); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := write("a.jsonl", "avx2", 5), write("b.jsonl", "avx2", 4), write("c.jsonl", "sse", 4)
	var out bytes.Buffer
	if code := runCompare(&out, []string{a, b}); code != 0 || !strings.Contains(out.String(), "-20.00%") {
		t.Errorf("same variant: exit %d, output %q", code, out.String())
	}
	if code := runCompare(&out, []string{a, c}); code == 0 {
		t.Error("comparing avx2 with sse runs must be refused")
	}
}
