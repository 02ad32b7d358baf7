package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"fp8quant/internal/harness"
	"fp8quant/internal/resultstore"
)

// expectedJSON holds, per kernel variant, the sha256 of every Table-2
// sweep cell payload as a cold untraced run stores it. Regenerate with
// -record-digests (see README.md) only when the numbers are meant to
// change.
//
//go:embed expected/cells.json
var expectedJSON []byte

// digestTable is the on-disk form of expected/cells.json.
type digestTable struct {
	Grid   string `json:"grid"`
	Schema int    `json:"schema"`
	// Variants maps kernel variant -> cell fingerprint -> payload sha256.
	Variants map[string]map[string]string `json:"variants"`
}

func loadDigests(b []byte) (digestTable, error) {
	var t digestTable
	if err := json.Unmarshal(b, &t); err != nil {
		return t, fmt.Errorf("expected digests: %w", err)
	}
	return t, nil
}

// cellSet is the outcome of checking one sweep's stored cells.
type cellSet struct {
	// Payloads maps fingerprint -> stored payload bytes (present cells).
	Payloads map[string][]byte
	// Attempted counts the selected cells; Failed those missing,
	// errored or differing from the expected digest.
	Attempted, Failed int
	// Problems names each failed cell and why.
	Problems []string
	// Digest is the sha256 over the sorted "fingerprint sha256" lines
	// of the present cells — one value naming the whole sweep's output.
	Digest string
}

// checkCells reads every selected cell of spec from the store directory
// and checks it is present, carries no error and hashes to the expected
// digest for the variant (nil expected = no table for this variant:
// every cell fails).
func checkCells(dir string, spec harness.GridSpec, sel []int, expected map[string]string) (cellSet, error) {
	s, err := resultstore.Open(dir)
	if err != nil {
		return cellSet{}, err
	}
	cs := cellSet{Payloads: map[string][]byte{}, Attempted: len(sel)}
	var lines []string
	for _, i := range sel {
		c := spec.CellAt(i)
		k := spec.CellKey(c)
		fp := k.Fingerprint()
		b, err := os.ReadFile(s.CellPath(k))
		if err != nil {
			cs.fail("%s: missing from the store", spec.KeyString(c))
			continue
		}
		cs.Payloads[fp] = b
		sum := payloadSum(b)
		lines = append(lines, fp+" "+sum)
		var env struct {
			Result struct {
				Err string `json:"err"`
			} `json:"result"`
		}
		switch {
		case json.Unmarshal(b, &env) != nil:
			cs.fail("%s: unreadable payload", spec.KeyString(c))
		case env.Result.Err != "":
			cs.fail("%s: cell error: %s", spec.KeyString(c), env.Result.Err)
		case expected == nil:
			cs.fail("%s: no expected digests for this kernel variant", spec.KeyString(c))
		case expected[fp] != sum:
			cs.fail("%s: payload sha256 %s, expected %q", spec.KeyString(c), sum[:12], expected[fp])
		}
	}
	sort.Strings(lines)
	h := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	cs.Digest = hex.EncodeToString(h[:])
	return cs, nil
}

func (cs *cellSet) fail(format string, args ...interface{}) {
	cs.Failed++
	cs.Problems = append(cs.Problems, fmt.Sprintf(format, args...))
}

// sameCells compares a second pass's payloads with a reference pass's
// and returns the fingerprints whose bytes differ or are absent.
func sameCells(ref, got map[string][]byte) []string {
	var bad []string
	for fp, b := range ref {
		if g, ok := got[fp]; !ok || string(g) != string(b) {
			bad = append(bad, fp)
		}
	}
	for fp := range got {
		if _, ok := ref[fp]; !ok {
			bad = append(bad, fp)
		}
	}
	sort.Strings(bad)
	return bad
}

func payloadSum(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// recordDigests hashes every Table-2 sweep cell of the store directory
// under the kernel variant its grid manifest records and merges the
// result into the digest file at path.
func recordDigests(path, storeDir string) error {
	e, ok := harness.Get(sweepExp)
	if !ok {
		return fmt.Errorf("experiment %s not registered", sweepExp)
	}
	spec := e.Spec()
	s, err := resultstore.Open(storeDir)
	if err != nil {
		return err
	}
	m, ok := s.LoadManifest(spec.ID, spec.Seed)
	if !ok || len(m.KernelVariants) != 1 {
		return fmt.Errorf("store %s records no single kernel variant for grid %s", storeDir, spec.ID)
	}
	variant := m.KernelVariants[0]
	t := digestTable{Grid: spec.ID, Schema: resultstore.SchemaVersion, Variants: map[string]map[string]string{}}
	if b, err := os.ReadFile(path); err == nil {
		if t, err = loadDigests(b); err != nil {
			return err
		}
		if t.Grid != spec.ID || t.Schema != resultstore.SchemaVersion {
			// A schema bump readdresses every cell: start over.
			t = digestTable{Grid: spec.ID, Schema: resultstore.SchemaVersion, Variants: map[string]map[string]string{}}
		}
	}
	cells := map[string]string{}
	for i := 0; i < spec.NumCells(); i++ {
		k := spec.CellKey(spec.CellAt(i))
		b, err := os.ReadFile(s.CellPath(k))
		if err != nil {
			return fmt.Errorf("store %s lacks cell %s: run the full %s grid first", storeDir, spec.KeyString(spec.CellAt(i)), sweepExp)
		}
		cells[k.Fingerprint()] = payloadSum(b)
	}
	t.Variants[variant] = cells
	b, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
