package harness

import (
	"fmt"
	"os"
	"testing"

	"fp8quant/internal/tensor/kernels"
)

// TestMain honors the FP8_KERNEL pin like the kernels and nn packages:
// report bits are per kernel variant, so forcing one here checks the
// golden digests recorded for that tier (the CI workflow does this once
// per variant).
func TestMain(m *testing.M) {
	if v := os.Getenv("FP8_KERNEL"); v != "" {
		if err := kernels.ForceVariant(kernels.Variant(v)); err != nil {
			// A variant the host cannot run is a vacuous pass for that
			// matrix step, same as in the kernels package.
			fmt.Printf("harness: %v; skipping forced-variant run\n", err)
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}
