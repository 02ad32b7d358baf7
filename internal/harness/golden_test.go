package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"fp8quant/internal/tensor/kernels"
)

// updateGolden rewrites the active variant's digests from the current
// code. Report bits change only when a result changes, so a rewrite
// must come with a stated reason for the moved numbers.
var updateGolden = flag.Bool("update-golden", false, "record report digests into testdata/golden/<variant>.json")

// goldenPath is the digest file of the active kernel variant: report
// bits are pinned per variant, like every other bit-identity contract.
func goldenPath() string {
	return filepath.Join("testdata", "golden", string(kernels.Active())+".json")
}

// goldenDigests loads the active variant's experiment -> sha256 map
// (empty when the variant has none recorded).
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	digests := map[string]string{}
	raw, err := os.ReadFile(goldenPath())
	if os.IsNotExist(err) {
		return digests
	}
	if err == nil {
		err = json.Unmarshal(raw, &digests)
	}
	if err != nil {
		t.Fatalf("reading %s: %v", goldenPath(), err)
	}
	return digests
}

// checkGolden compares the sha256 of a report's text with the digest
// recorded for the experiment under the active kernel variant, or
// records it under -update-golden. A missing digest is logged, not
// failed.
func checkGolden(t *testing.T, id string, r *Report) {
	t.Helper()
	sum := sha256.Sum256([]byte(r.Text))
	got := hex.EncodeToString(sum[:])
	digests := goldenDigests(t)
	if *updateGolden {
		digests[id] = got
		out, err := json.MarshalIndent(digests, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: recorded digest %s in %s", id, got, goldenPath())
		return
	}
	want, ok := digests[id]
	if !ok {
		t.Logf("%s: no golden digest recorded for kernel variant %s", id, kernels.Active())
		return
	}
	if got != want {
		t.Errorf("%s: report digest %s, golden %s (variant %s); the report text changed:\n%s",
			id, got, want, kernels.Active(), r.Text)
	}
}

// TestGoldenReports pins the report text of representative experiments
// to digests recorded from a known-good build, so a refactor that
// claims unchanged results proves it byte for byte. fig6 and table4
// are checked inside their determinism tests, which already run them.
func TestGoldenReports(t *testing.T) {
	for _, id := range []string{"fig8", "table6", "table5", "table3"} {
		t.Run(id, func(t *testing.T) {
			if id == "table3" && testing.Short() {
				t.Skip("table3 grid")
			}
			if _, ok := goldenDigests(t)[id]; !ok && !*updateGolden {
				t.Skipf("%s: no golden digest recorded for kernel variant %s", id, kernels.Active())
			}
			checkGolden(t, id, runWithWorkers(t, id, 0))
		})
	}
}
