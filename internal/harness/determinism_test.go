package harness

import (
	"math"
	"testing"
)

// runWithWorkers runs one experiment at a fixed sweep worker count.
// The in-process cell memo is cleared first so every run genuinely
// recomputes its cells — otherwise the second worker count would just
// replay memoized results and the determinism check would be vacuous.
func runWithWorkers(t *testing.T, id string, workers int) *Report {
	t.Helper()
	ClearMemo()
	t.Cleanup(ClearMemo)
	SetWorkers(workers)
	defer SetWorkers(0)
	e, ok := Get(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	return Run(e)
}

// requireIdenticalValues asserts two reports carry bit-identical
// Values maps — the per-cell isolation contract: scheduling must not
// influence a single bit of any reported number.
func requireIdenticalValues(t *testing.T, id string, a, b *Report) {
	t.Helper()
	if len(a.Values) != len(b.Values) {
		t.Fatalf("%s: %d values vs %d", id, len(a.Values), len(b.Values))
	}
	for k, va := range a.Values {
		vb, ok := b.Values[k]
		if !ok {
			t.Fatalf("%s: value %q missing from second run", id, k)
		}
		if math.Float64bits(va) != math.Float64bits(vb) {
			t.Errorf("%s: value %q = %v (workers=1) vs %v (workers=8): not bit-identical",
				id, k, va, vb)
		}
	}
	if a.Text != b.Text {
		t.Errorf("%s: report text differs across worker counts", id)
	}
}

// TestFig6DeterministicAcrossWorkers pins the isolated-cell refactor:
// every Figure 6 config quantizes its own pipeline clone, so the FID
// grid must be bit-identical serially and at full parallelism.
func TestFig6DeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full diffusion grid")
	}
	serial := runWithWorkers(t, "fig6", 1)
	parallel := runWithWorkers(t, "fig6", 8)
	requireIdenticalValues(t, "fig6", serial, parallel)
	if len(serial.Values) == 0 {
		t.Fatal("fig6 produced no values")
	}
	checkGolden(t, "fig6", serial)
}

// TestTable4DeterministicAcrossWorkers does the same for the Bloom
// generation study: per-cell LM clones, any worker count, identical
// beam-search metrics.
func TestTable4DeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full generation grid")
	}
	serial := runWithWorkers(t, "table4", 1)
	parallel := runWithWorkers(t, "table4", 8)
	requireIdenticalValues(t, "table4", serial, parallel)
	if len(serial.Values) == 0 {
		t.Fatal("table4 produced no values")
	}
	checkGolden(t, "table4", serial)
}

// TestAblationsDeterministicAcrossWorkers covers the smaller grids that
// moved onto the sweep pool in the same refactor.
func TestAblationsDeterministicAcrossWorkers(t *testing.T) {
	for _, id := range []string{"fig8", "ablation-wgt", "ablation-calib"} {
		serial := runWithWorkers(t, id, 1)
		parallel := runWithWorkers(t, id, 8)
		requireIdenticalValues(t, id, serial, parallel)
	}
}
