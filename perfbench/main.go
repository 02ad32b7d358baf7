// Command perfbench is the repository benchmark: cold Table-2 sweeps
// over seeded model selections, measured end to end (untraced) or
// layer by layer (traced). See README.md.
//
//	perfbench -workload sweep-cnn -seed 3 -seconds 40 -trace 0
//	perfbench -steadiness 5
//	perfbench -compare before.jsonl,after.jsonl
//
// run.sh builds this program and the fp8bench worker binary from the
// checkout and passes their paths in; run perfbench through it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"fp8quant/internal/tensor/kernels"
)

// deadline bounds one run, set-up and children included.
const deadline = 170 * time.Second

func main() { os.Exit(realMain()) }

func realMain() int {
	child := flag.String("child", "", "internal: run the child job described by this file")
	wname := flag.String("workload", "", "workload to run: sweep-cnn, sweep-nlp or coord-mixed")
	seed := flag.Uint64("seed", 1, "workload seed: picks the models each sweep runs")
	seconds := flag.Int("seconds", 40, "how long one run measures")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics (untraced), 1 = per-layer metrics (traced pass)")
	fp8bench := flag.String("fp8bench", "", "fp8bench binary the coord-mixed workers run")
	work := flag.String("work", filepath.Join(".bench_build", "perfbench"), "directory for stores, spans and the results log")
	steadiness := flag.Int("steadiness", 0, "run this many rounds of every workload (seeds 1..N, alternating) and print each metric's spread")
	compare := flag.String("compare", "", "compare two results logs, \"before.jsonl,after.jsonl\"")
	recordFrom := flag.String("record-digests", "", "hash every Table-2 cell of this store into perfbench/expected/cells.json")
	flag.Parse()

	switch {
	case *child != "":
		return runChildMode(*child)
	case *recordFrom != "":
		if err := recordDigests(filepath.Join("perfbench", "expected", "cells.json"), *recordFrom); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	case *compare != "":
		return runCompare(os.Stdout, strings.Split(*compare, ","))
	}

	pb, err := newBench(*work, *fp8bench)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if *steadiness > 0 {
		return pb.runSteadiness(*steadiness, *seconds)
	}
	w, err := findWorkload(*wname)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	rec, err := pb.runOne(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for i, p := range rec.Problems {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: ... %d more problems\n", w.name, len(rec.Problems)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", w.name, p)
	}
	prov, _ := json.Marshal(map[string]interface{}{"provenance": rec.Provenance})
	fmt.Println(string(prov))
	out, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// bench holds what every run needs: the binaries, the work directory
// and the expected cell digests for this machine's kernel variant.
type bench struct {
	self, fp8bench string
	work           string
	expected       map[string]string
	variant        string
}

func newBench(work, fp8bench string) (*bench, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if fp8bench != "" {
		if _, err := os.Stat(fp8bench); err != nil {
			return nil, fmt.Errorf("fp8bench binary: %w", err)
		}
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	t, err := loadDigests(expectedJSON)
	if err != nil {
		return nil, err
	}
	v := string(kernels.Active())
	return &bench{self: self, fp8bench: fp8bench, work: work, expected: t.Variants[v], variant: v}, nil
}

// result is the final stdout line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance records what a run measured on.
type provenance struct {
	Workload      string     `json:"workload"`
	Seed          uint64     `json:"seed"`
	Trace         bool       `json:"trace"`
	KernelVariant string     `json:"kernel_variant"`
	NumCPU        int        `json:"nproc"`
	GOMAXPROCS    int        `json:"gomaxprocs"`
	SweepProcs    int        `json:"sweep_gomaxprocs"` // per sweep process
	GoVersion     string     `json:"go_version"`
	Models        [][]string `json:"models"`
	Digests       []string   `json:"digests"`
	Repetitions   int        `json:"repetitions"`
	SetupSamples  int        `json:"setup_samples"`
	HostProbeMs   float64    `json:"host_probe_ms"`
	Started       string     `json:"started"`
}

// runRecord is one run as appended to the results log.
type runRecord struct {
	Provenance provenance    `json:"provenance"`
	Result     result        `json:"result"`
	Sweeps     []sweepSample `json:"sweeps,omitempty"`
	Problems   []string      `json:"problems,omitempty"`
}

// sweepSample is one sweep of an untraced run, before the medians.
type sweepSample struct {
	Models []string `json:"models"`
	SweepS float64  `json:"sweep_s"`
	CPUS   float64  `json:"cpu_s"`
	SetupS float64  `json:"setup_s"`
	RSSMB  float64  `json:"peak_rss_mb"`
}

// runOne performs one run of a workload and appends it to the results
// log. An error means the run could not be measured at all.
func (pb *bench) runOne(w workload, seed uint64, seconds int, traced bool) (runRecord, error) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	if w.coordinated && pb.fp8bench == "" {
		return runRecord{}, fmt.Errorf("no worker binary: pass -fp8bench")
	}
	dir, err := os.MkdirTemp(pb.work, fmt.Sprintf("%s-s%d-t%v-", w.name, seed, traced))
	if err != nil {
		return runRecord{}, err
	}
	rec := runRecord{Provenance: provenance{
		Workload: w.name, Seed: seed, Trace: traced,
		KernelVariant: pb.variant, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		SweepProcs: localWorkers, GoVersion: runtime.Version(), Started: time.Now().UTC().Format(time.RFC3339),
	}}
	if w.coordinated {
		rec.Provenance.SweepProcs = 1
	}
	rec.Provenance.HostProbeMs = hostProbe()
	if traced {
		err = pb.tracedRun(ctx, w, seed, dir, &rec)
	} else {
		err = pb.untracedRun(ctx, w, seed, time.Duration(seconds)*time.Second, dir, &rec)
	}
	if err != nil {
		return rec, err
	}
	rec.Result.Correct = rec.Result.Failed == 0 && len(rec.Problems) == 0
	if err := appendRecord(filepath.Join(pb.work, "results.jsonl"), rec); err != nil {
		return rec, err
	}
	return rec, nil
}

func appendRecord(path string, rec runRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probeSink keeps the probe loop from being optimized away.
var probeSink uint64

// hostProbe times a fixed pure-Go integer loop (median of three). It
// measures nothing of the program: it makes machine drift visible next
// to the metrics.
func hostProbe() float64 {
	var ms []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		x := uint64(1)
		for j := 0; j < 40_000_000; j++ {
			x = x*6364136223846793005 + 1442695040888963407
			x ^= x >> 29
		}
		probeSink += x
		ms = append(ms, float64(time.Since(t).Nanoseconds())/1e6)
	}
	return median(ms)
}
