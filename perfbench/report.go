package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// loadBounds reads each end-to-end metric's bound from BENCHMARK.json
// in the working directory (absent file = no bounds shown).
func loadBounds() map[string]float64 {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(b, &spec) != nil {
		return nil
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// runSteadiness runs rounds x every workload untraced, rotating which
// workload goes first each round and using the round number as seed,
// then prints each end-to-end metric's median, quartiles and sample
// count next to the host probe.
func (pb *bench) runSteadiness(rounds, seconds int) int {
	var recs []runRecord
	for r := 1; r <= rounds; r++ {
		for k := range workloads {
			w := workloads[(k+r)%len(workloads)]
			rec, err := pb.runOne(w, uint64(r), seconds, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, r, err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "round %d %s: sweep_s %.3f correct=%v\n", r, w.name, rec.Result.Metrics["sweep_s"].Value, rec.Result.Correct)
			recs = append(recs, rec)
		}
	}
	if !writeSummary(os.Stdout, recs, loadBounds()) {
		return 1
	}
	return 0
}

// writeSummary prints the steadiness table and the explicit checks;
// it reports whether every run was correct and every spread stayed
// within a third of its bound.
func writeSummary(w io.Writer, recs []runRecord, bounds map[string]float64) bool {
	ok := true
	byW := groupByWorkload(recs)
	fmt.Fprintf(w, "%-12s %-12s %3s %12s %12s %12s %8s %7s  %s\n",
		"workload", "metric", "n", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, wl := range workloads {
		rs := byW[wl.name]
		if len(rs) == 0 {
			continue
		}
		for _, md := range endToEnd {
			xs := valuesOf(rs, md.name)
			q1, q2, q3 := quartiles(xs)
			sp := spread(xs)
			verdict := "-"
			if b, found := bounds[md.name]; found {
				verdict = "ok"
				if md.name != "setup_s" && sp > b/3 {
					verdict, ok = "WIDE", false
				}
			}
			fmt.Fprintf(w, "%-12s %-12s %3d %12.6g %12.6g %12.6g %7.2f%% %6.0f%%  %s\n",
				wl.name, md.name, len(xs), q1, q2, q3, 100*sp, 100*bounds[md.name], verdict)
		}
		var probes []float64
		correct := 0
		for _, r := range rs {
			probes = append(probes, r.Provenance.HostProbeMs)
			if r.Result.Correct {
				correct++
			}
		}
		q1, q2, q3 := quartiles(probes)
		fmt.Fprintf(w, "%-12s %-12s %3d %12.6g %12.6g %12.6g %7.2f%% %7s  (not gated)\n",
			wl.name, "host.probe_ms", len(probes), q1, q2, q3, 100*spread(probes), "")
		if correct != len(rs) {
			ok = false
		}
		fmt.Fprintf(w, "%-12s correct runs: %d of %d\n", wl.name, correct, len(rs))
	}
	fmt.Fprintln(w, "\nchecks:")
	for _, wl := range workloads {
		rs := byW[wl.name]
		if len(rs) == 0 {
			continue
		}
		setups := valuesOf(rs, "setup_s")
		samples := 0
		for _, r := range rs {
			samples += r.Provenance.SetupSamples
		}
		fmt.Fprintf(w, "  %s setup_s: median %.2f ms; each run reports the median of %.1f set-ups\n",
			wl.name, 1000*median(setups), float64(samples)/float64(len(rs)))
		rss := valuesOf(rs, "peak_rss_mb")
		gap, at := widestGap(rss)
		mode := "unimodal"
		if gap > 0.1*median(rss) {
			mode = fmt.Sprintf("BIMODAL? gap of %.1f MB above %.1f MB", gap, at)
		}
		fmt.Fprintf(w, "  %s peak_rss_mb: %.1f..%.1f MB, %s\n", wl.name, minOf(rss), maxOf(rss), mode)
		minCells := -1
		for _, r := range rs {
			n := len(sweepSpec().Select(filterFor(wl.selection(r.Provenance.Seed, 0, true))))
			if minCells < 0 || n < minCells {
				minCells = n
			}
		}
		fmt.Fprintf(w, "  %s p75 rule: traced selections hold >= %d cells; p75 reportable: %v\n",
			wl.name, minCells, p75Supported(minCells))
	}
	return ok
}

func groupByWorkload(recs []runRecord) map[string][]runRecord {
	out := map[string][]runRecord{}
	for _, r := range recs {
		if !r.Provenance.Trace {
			out[r.Provenance.Workload] = append(out[r.Provenance.Workload], r)
		}
	}
	return out
}

func valuesOf(rs []runRecord, name string) []float64 {
	var xs []float64
	for _, r := range rs {
		if m, ok := r.Result.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// widestGap returns the largest distance between neighbouring sorted
// values and the value below it.
func widestGap(xs []float64) (gap, at float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i := 1; i < len(s); i++ {
		if d := s[i] - s[i-1]; d > gap {
			gap, at = d, s[i-1]
		}
	}
	return gap, at
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// readRecords loads a results log.
func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// runCompare prints, per workload and end-to-end metric, the medians
// of two results logs and their relative change. Runs made with
// different kernel variants compute different bits and are refused.
func runCompare(w io.Writer, paths []string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "perfbench: -compare wants two results logs")
		return 2
	}
	var sets [2][]runRecord
	variants := map[string]bool{}
	for i, p := range paths {
		recs, err := readRecords(strings.TrimSpace(p))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		sets[i] = recs
		for _, r := range recs {
			variants[r.Provenance.KernelVariant] = true
		}
	}
	if len(variants) > 1 {
		var vs []string
		for v := range variants {
			vs = append(vs, v)
		}
		sort.Strings(vs)
		fmt.Fprintf(os.Stderr, "perfbench: refusing to compare runs made with different kernel variants (%s)\n", strings.Join(vs, ", "))
		return 1
	}
	bounds := loadBounds()
	a, b := groupByWorkload(sets[0]), groupByWorkload(sets[1])
	fmt.Fprintf(w, "%-12s %-12s %4s %12s %4s %12s %9s %7s\n", "workload", "metric", "n", "before", "n", "after", "change", "bound")
	for _, wl := range workloads {
		if len(a[wl.name]) == 0 || len(b[wl.name]) == 0 {
			continue
		}
		for _, md := range endToEnd {
			xa, xb := valuesOf(a[wl.name], md.name), valuesOf(b[wl.name], md.name)
			ma, mb := median(xa), median(xb)
			change := 0.0
			if ma != 0 {
				change = 100 * (mb/ma - 1)
			}
			fmt.Fprintf(w, "%-12s %-12s %4d %12.6g %4d %12.6g %8.2f%% %6.0f%%\n",
				wl.name, md.name, len(xa), ma, len(xb), mb, change, 100*bounds[md.name])
		}
	}
	return 0
}
