package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"fp8quant/internal/harness"
	"fp8quant/internal/resultstore"
)

// childJob is what the benchmark process hands a child process: one cold sweep
// (or one set-up probe, or one traced pass) over a model selection.
type childJob struct {
	// Mode is "sweep" (untraced local sweep), "setup" (exit at the
	// first dispatched cell) or "traced" (the traced pass).
	Mode    string   `json:"mode"`
	Store   string   `json:"store"`
	Models  []string `json:"models"`
	Workers int      `json:"workers"`
	// Lanes, for a traced replay of a coordinated sweep, lists the grid
	// cells each worker computed in lease order. Empty = local claim
	// order over the selection, one shared reference cache.
	Lanes [][]int `json:"lanes,omitempty"`
}

// childOut is the child's report on stdout.
type childOut struct {
	// DispatchNs is the wall clock (Unix ns) when the first cell was
	// dispatched; EndNs when the last cell was persisted.
	DispatchNs int64 `json:"dispatch_ns"`
	EndNs      int64 `json:"end_ns"`
	// Runtime counters of the sweep process (untraced sweeps).
	TotalAlloc   uint64 `json:"total_alloc"`
	NumGC        uint32 `json:"num_gc"`
	HeapRetained uint64 `json:"heap_retained"`
	// Store traffic of the sweep.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Spans of a traced pass.
	Spans []span `json:"spans,omitempty"`
	Error string `json:"error,omitempty"`
}

// runChildMode is the child process's main: run the job, print the
// report, exit.
func runChildMode(jobPath string) int {
	b, err := os.ReadFile(jobPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var job childJob
	if err := json.Unmarshal(b, &job); err != nil {
		fmt.Fprintf(os.Stderr, "child job: %v\n", err)
		return 1
	}
	out := runJob(job)
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		return 1
	}
	if out.Error != "" {
		return 1
	}
	return 0
}

func runJob(job childJob) childOut {
	var out childOut
	s, err := resultstore.Open(job.Store)
	if err != nil {
		out.Error = err.Error()
		return out
	}
	e, ok := harness.Get(sweepExp)
	if !ok {
		out.Error = "experiment " + sweepExp + " not registered"
		return out
	}
	if job.Mode == "traced" {
		spec := e.Spec()
		tp := tracedPass{spec: spec, store: s, workers: job.Workers, lanes: job.Lanes}
		if len(job.Lanes) == 0 {
			tp.shared = true
			tp.lanes = [][]int{spec.Select(filterFor(job.Models))}
		}
		out.DispatchNs = time.Now().UnixNano()
		out.Spans = tp.run()
		out.EndNs = time.Now().UnixNano()
		return out
	}
	harness.SetWorkers(job.Workers)
	harness.SetStore(s)
	harness.SetProgress(func(_ string, done, _ int) {
		if done != 0 {
			return
		}
		// The executor reports 0 done right before it dispatches the
		// first cell: the end of set-up.
		if job.Mode == "setup" {
			fmt.Printf("{\"dispatch_ns\":%d}\n", time.Now().UnixNano())
			os.Exit(0)
		}
		out.DispatchNs = time.Now().UnixNano()
	})
	if _, _, err := harness.RunGrid(e, filterFor(job.Models), harness.Shard{}); err != nil {
		out.Error = err.Error()
		return out
	}
	out.EndNs = time.Now().UnixNano()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.TotalAlloc, out.NumGC = ms.TotalAlloc, ms.NumGC
	runtime.GC()
	runtime.ReadMemStats(&ms)
	out.HeapRetained = ms.HeapAlloc
	st := s.Stats()
	out.Hits, out.Misses = st.Hits, st.Misses
	return out
}

// procStats is what the benchmark process measures of one child.
type procStats struct {
	LaunchNs int64
	CPU      float64 // user+sys seconds
	MaxRSSMB float64
}

// rusageOf extracts CPU seconds and peak RSS of an exited process.
func rusageOf(ps *os.ProcessState) (cpu, rssMB float64) {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return ps.UserTime().Seconds() + ps.SystemTime().Seconds(), 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	return cpu, float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// selfUsage returns this process's CPU seconds and peak RSS so far.
func selfUsage() (cpu, rssMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(), float64(ru.Maxrss) / 1024
}

// launchChild runs this binary in child mode on job and decodes its
// report. The child runs with GOMAXPROCS = job.Workers.
func (pb *bench) launchChild(ctx context.Context, dir string, job childJob) (childOut, procStats, error) {
	var out childOut
	var st procStats
	jobPath := filepath.Join(dir, "job-"+job.Mode+".json")
	b, err := json.Marshal(job)
	if err != nil {
		return out, st, err
	}
	if err := os.WriteFile(jobPath, b, 0o644); err != nil {
		return out, st, err
	}
	cmd := exec.CommandContext(ctx, pb.self, "-child", jobPath)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", job.Workers))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	st.LaunchNs = time.Now().UnixNano()
	err = cmd.Run()
	if cmd.ProcessState != nil {
		st.CPU, st.MaxRSSMB = rusageOf(cmd.ProcessState)
	}
	if err != nil {
		return out, st, fmt.Errorf("child %s: %v: %s", job.Mode, err, lastLine(stderr.String()))
	}
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &out); err != nil {
		return out, st, fmt.Errorf("child %s: bad report: %v", job.Mode, err)
	}
	return out, st, nil
}

func lastLine(s string) string {
	s = string(bytes.TrimSpace([]byte(s)))
	if i := bytes.LastIndexByte([]byte(s), '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}
