package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"fp8quant/internal/coord"
	"fp8quant/internal/harness"
	"fp8quant/internal/resultstore"
)

// coordWorkers is the worker-process count of the coordinated sweep;
// each runs with GOMAXPROCS=1.
const coordWorkers = 2

// workerDoneLine is what an fp8bench worker logs when it exits on the
// coordinator's StatusDone (see coord.Worker.Run).
const workerDoneLine = "schedule complete, exiting"

// reqRec is one coordinator request seen by the tracing handler.
type reqRec struct {
	Path   string  `json:"path"`
	Worker string  `json:"worker,omitempty"`
	Start  int64   `json:"start_ns"` // since the sweep was launched
	End    int64   `json:"end_ns"`
	Code   int     `json:"code"`
	Status string  `json:"status,omitempty"` // lease status
	Index  int     `json:"index"`            // leased or pushed grid cell (-1 = none)
	FP     string  `json:"fingerprint,omitempty"`
	DurMs  float64 `json:"duration_ms,omitempty"` // pushed DurationMs
}

// coordTracer wraps Coordinator.Handler() and records every request
// with its server-side latency, the lease decisions and the pushed
// cell durations.
type coordTracer struct {
	next http.Handler
	t0   time.Time
	mu   sync.Mutex
	reqs []reqRec
}

// captureWriter keeps a copy of the response body and its status code.
type captureWriter struct {
	http.ResponseWriter
	code int
	buf  bytes.Buffer
}

func (w *captureWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *captureWriter) Write(b []byte) (int, error) {
	w.buf.Write(b)
	return w.ResponseWriter.Write(b)
}

func (t *coordTracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Since(t.t0).Nanoseconds()
	var body []byte
	if r.Body != nil {
		body, _ = io.ReadAll(r.Body) // a short read reaches the handler as a bad request
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	cw := &captureWriter{ResponseWriter: w, code: http.StatusOK}
	t.next.ServeHTTP(cw, r)
	rec := reqRec{Path: r.URL.Path, Start: start, End: time.Since(t.t0).Nanoseconds(), Code: cw.code, Index: -1}
	switch r.URL.Path {
	case "/v1/lease":
		var lr coord.LeaseRequest
		var resp coord.LeaseResponse
		if json.Unmarshal(body, &lr) == nil && json.Unmarshal(cw.buf.Bytes(), &resp) == nil {
			rec.Worker, rec.Status = lr.Worker, resp.Status
			if resp.Lease != nil {
				rec.Index, rec.FP = resp.Lease.Index, resp.Lease.Fingerprint
			}
		}
	case "/v1/push":
		var pr coord.PushRequest
		if json.Unmarshal(body, &pr) == nil {
			rec.Worker, rec.FP, rec.DurMs = pr.Worker, pr.Fingerprint, pr.DurationMs
		}
	case "/v1/workers":
		var h coord.WorkerHello
		if json.Unmarshal(body, &h) == nil {
			rec.Worker = h.Worker
		}
	}
	t.mu.Lock()
	t.reqs = append(t.reqs, rec)
	t.mu.Unlock()
}

func (t *coordTracer) records() []reqRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]reqRec(nil), t.reqs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// coordOut is one coordinated sweep as measured.
type coordOut struct {
	SetupS, SweepS, CPUS, RSSMB float64
	// DrainS is how long the workers took to exit after completion.
	DrainS float64
	// Runtime counters of this process (which hosts the
	// coordinator) over the sweep.
	TotalAlloc, NumGC, HeapRetained float64
	Stats                           resultstore.Stats
	Reqs                            []reqRec // traced sweeps only
	Problems                        []string
}

// coordSweep runs one cold coordinated sweep of sel: an in-process
// coordinator on loopback over a fresh store, and two fp8bench -worker
// processes pulling cells without a local cache. It keeps serving
// until both workers have exited on StatusDone, so no worker retries
// against a gone coordinator. With setupOnly it stops at the first
// granted lease.
func (pb *bench) coordSweep(ctx context.Context, storeDir string, sel []string, traced, setupOnly bool) (coordOut, error) {
	var out coordOut
	var ms0 runtime.MemStats
	if !setupOnly {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
	}
	cpu0, _ := selfUsage()
	t0 := time.Now()
	s, err := resultstore.Open(storeDir)
	if err != nil {
		return out, err
	}
	e, ok := harness.Get(sweepExp)
	if !ok {
		return out, fmt.Errorf("experiment %s not registered", sweepExp)
	}
	c, err := coord.New(coord.Config{Experiments: []harness.Experiment{e}, Filter: filterFor(sel), Store: s})
	if err != nil {
		return out, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return out, err
	}
	var h http.Handler = c.Handler()
	var tracer *coordTracer
	if traced {
		tracer = &coordTracer{next: h, t0: t0}
		h = tracer
	}
	srv := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx) // every worker has exited by now
		<-served
	}()

	stopWatch := make(chan struct{})
	defer close(stopWatch)
	firstLease := watchFirstLease(c, stopWatch)
	url := "http://" + ln.Addr().String()
	type exited struct {
		i   int
		err error
	}
	cmds := make([]*exec.Cmd, coordWorkers)
	logs := make([]*bytes.Buffer, coordWorkers)
	exits := make(chan exited, coordWorkers) // one send per worker
	for i := range cmds {
		logs[i] = &bytes.Buffer{}
		cmd := exec.Command(pb.fp8bench, "-worker", url, "-no-cache", "-worker-name", fmt.Sprintf("perfbench-w%d", i+1))
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		cmd.Stdout, cmd.Stderr = io.Discard, logs[i]
		if err := cmd.Start(); err != nil {
			for _, started := range cmds[:i] {
				_ = started.Process.Kill()
				_ = started.Wait()
			}
			return out, fmt.Errorf("starting worker: %w", err)
		}
		cmds[i] = cmd
		go func(i int) { exits <- exited{i, cmds[i].Wait()} }(i)
	}
	running := coordWorkers
	killAll := func() {
		for _, cmd := range cmds {
			_ = cmd.Process.Kill() // an already-exited worker just reports an error
		}
		for ; running > 0; running-- {
			<-exits
		}
	}

	if setupOnly {
		select {
		case at := <-firstLease:
			out.SetupS = at.Sub(t0).Seconds()
		case ex := <-exits:
			running--
			killAll()
			return out, fmt.Errorf("worker %d exited before the first lease: %v: %s", ex.i+1, ex.err, lastLine(logs[ex.i].String()))
		case <-ctx.Done():
			killAll()
			return out, ctx.Err()
		}
		killAll()
		return out, nil
	}

	var doneAt time.Time
	for doneAt.IsZero() {
		select {
		case <-c.Done():
			doneAt = time.Now()
		case ex := <-exits:
			running--
			out.Problems = append(out.Problems, fmt.Sprintf("worker %d exited before the schedule completed: %v: %s", ex.i+1, ex.err, lastLine(logs[ex.i].String())))
			if running == 0 {
				return out, fmt.Errorf("%s", strings.Join(out.Problems, "; "))
			}
		case <-ctx.Done():
			killAll()
			return out, ctx.Err()
		}
	}
	// Serve on until every worker has seen StatusDone and exited.
	grace := time.NewTimer(30 * time.Second)
	defer grace.Stop()
	for running > 0 {
		select {
		case ex := <-exits:
			running--
			if ex.err != nil || !strings.Contains(logs[ex.i].String(), workerDoneLine) {
				out.Problems = append(out.Problems, fmt.Sprintf("worker %d did not exit on StatusDone: %v: %s", ex.i+1, ex.err, lastLine(logs[ex.i].String())))
			}
		case <-grace.C:
			out.Problems = append(out.Problems, "workers still running 30s after the schedule completed")
			killAll()
		case <-ctx.Done():
			killAll()
			return out, ctx.Err()
		}
	}
	out.DrainS = time.Since(doneAt).Seconds()
	for _, cmd := range cmds {
		cpu, rss := rusageOf(cmd.ProcessState)
		out.CPUS += cpu
		if rss > out.RSSMB {
			out.RSSMB = rss
		}
	}
	cpu1, selfRSS := selfUsage()
	out.CPUS += cpu1 - cpu0
	if selfRSS > out.RSSMB {
		out.RSSMB = selfRSS
	}
	select {
	case at := <-firstLease:
		out.SetupS = at.Sub(t0).Seconds()
	default:
		out.Problems = append(out.Problems, "no lease observed")
	}
	out.SweepS = doneAt.Sub(t0).Seconds()
	out.Stats = s.Stats()
	for _, f := range c.FailedCells() {
		out.Problems = append(out.Problems, "coordinator recorded a failed cell: "+f)
	}
	if tracer != nil {
		out.Reqs = tracer.records()
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	out.TotalAlloc = float64(ms1.TotalAlloc - ms0.TotalAlloc)
	out.NumGC = float64(ms1.NumGC - ms0.NumGC)
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	out.HeapRetained = float64(ms1.HeapAlloc)
	return out, nil
}

// watchFirstLease reports, once, the time the coordinator's progress
// first shows a cell leased (or already settled). It follows the
// coordinator's own change notifications and stops after reporting,
// once the schedule completes, or when stop is closed.
func watchFirstLease(c *coord.Coordinator, stop <-chan struct{}) <-chan time.Time {
	ch := make(chan time.Time, 1) // the single report never blocks the watcher
	go func() {
		gen := int64(-1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := c.AwaitChange(gen, 200*time.Millisecond)
			for _, p := range snap.Experiments {
				if p.Leased+p.Done+p.Failed > 0 {
					ch <- time.Now()
					return
				}
			}
			if snap.Complete {
				return
			}
			gen = snap.Gen
		}
	}()
	return ch
}

// coordMetrics derives the coord.* per-layer metrics from a traced
// coordinated sweep's requests.
func coordMetrics(reqs []reqRec, sweepS float64) map[string]float64 {
	m := map[string]float64{}
	var leaseMs, pushMs []float64
	var pushedMs float64
	firstIdle := int64(-1)
	for _, r := range reqs {
		lat := float64(r.End-r.Start) / 1e6
		if r.Code < 200 || r.Code > 299 {
			m["coord.non2xx"]++
		}
		switch r.Path {
		case "/v1/lease":
			leaseMs = append(leaseMs, lat)
			switch r.Status {
			case coord.StatusLease:
				m["coord.leases"]++
			case coord.StatusWait:
				m["coord.waits"]++
			}
			if (r.Status == coord.StatusWait || r.Status == coord.StatusDone) && firstIdle < 0 {
				firstIdle = r.Start
			}
		case "/v1/push":
			pushMs = append(pushMs, lat)
			m["coord.pushes"]++
			pushedMs += r.DurMs
		}
	}
	m["coord.lease_p50_ms"], _ = percentile(leaseMs, 0.5)
	m["coord.push_p50_ms"], _ = percentile(pushMs, 0.5)
	if sweepS > 0 {
		m["coord.efficiency"] = pushedMs / (coordWorkers * sweepS * 1000)
		if firstIdle >= 0 {
			m["coord.tail_s"] = math.Max(0, sweepS-float64(firstIdle)/1e9)
		}
	}
	return m
}

// leaseLanes groups a traced coordinated sweep's granted leases by
// worker, in grant order: the replay order of the traced pass.
func leaseLanes(reqs []reqRec) [][]int {
	byWorker := map[string][]int{}
	var names []string
	for _, r := range reqs {
		if r.Path != "/v1/lease" || r.Status != coord.StatusLease {
			continue
		}
		if _, ok := byWorker[r.Worker]; !ok {
			names = append(names, r.Worker)
		}
		byWorker[r.Worker] = append(byWorker[r.Worker], r.Index)
	}
	sort.Strings(names)
	lanes := make([][]int, 0, len(names))
	for _, n := range names {
		lanes = append(lanes, byWorker[n])
	}
	return lanes
}

// coordSpans renders the traced requests as spans (one per handler
// call; a lease or push span carries its cell's grid index).
func coordSpans(reqs []reqRec) []span {
	cellOf := map[string]int{}
	for _, r := range reqs {
		if r.Index >= 0 {
			cellOf[r.FP] = r.Index
		}
	}
	out := make([]span, 0, len(reqs))
	for i, r := range reqs {
		cell := r.Index
		if c, ok := cellOf[r.FP]; ok && r.FP != "" {
			cell = c
		}
		name := "coord." + strings.TrimPrefix(r.Path, "/v1/")
		out = append(out, span{ID: i + 1, Cell: cell, Name: name, Start: r.Start, End: r.End, Failed: r.Code > 299})
	}
	return out
}
