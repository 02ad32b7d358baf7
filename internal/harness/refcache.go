// Compute-once reference cache. Cells are pure — each builds its own
// network — but the FP32 reference a cell is judged against is pure
// data: deterministic per key and shared by every recipe cell of that
// model (or, for fig6 and table4, by every config of the grid).
// Computing it once per process keeps the per-cell API from
// multiplying the reference passes by the recipe-axis length.

package harness

import (
	"sync"

	"fp8quant/internal/evalx"
	"fp8quant/internal/models"
)

var refCache sync.Map // key -> *refEntry

type refEntry struct {
	once sync.Once
	ref  any
}

// cachedRef returns the value cached under key, computing it at most
// once per process (between ClearMemo calls). compute must be
// deterministic for the key, so which caller runs it cannot matter.
func cachedRef[T any](key string, compute func() T) T {
	e, _ := refCache.LoadOrStore(key, &refEntry{})
	ent := e.(*refEntry)
	ent.once.Do(func() { ent.ref = compute() })
	return ent.ref.(T)
}

// modelRef returns the FP32 reference for the named model. The caller's
// net is used only for the first computation; references are
// deterministic (the forward pass does not mutate the network), so
// every caller sees the same data.
func modelRef(name string, net *models.Network) evalx.Reference {
	return cachedRef("model/"+name, func() evalx.Reference { return evalx.ComputeReference(net) })
}

// clearRefs drops the reference cache (ClearMemo's process-boundary
// simulation).
func clearRefs() {
	refCache.Range(func(k, _ any) bool {
		refCache.Delete(k)
		return true
	})
}
