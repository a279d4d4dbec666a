package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workload is one traffic shape the benchmark drives the program with.
type workload interface {
	// setup materialises the workload's traces under dir and brings the
	// program up; the harness times it as set-up.
	setup(dir string, clk *setupClock) error
	// teardown stops what setup started.
	teardown()
	// traces lists the traces the last setup wrote.
	traces() []traceFile
	// prepare computes the references the ops are checked against. It is
	// not timed.
	prepare() error
	// measure runs ops for at least d and returns what they did. A non-nil
	// tracer records spans around every call into the program.
	measure(d time.Duration, t *tracer, ops *opCounter) (*window, error)
	// check verifies every op of the window against the references,
	// marking each op that fails. It is not timed.
	check(w *window, t *tracer, ops *opCounter)
	// kernelRate measures bp.SimulateBatch alone over the workload's
	// decoded events and predictor, in branches per second.
	kernelRate(budget time.Duration) (float64, error)
}

// workloads are constructed per run from the seed and the size.
var workloads = map[string]func(seed uint64, tiny bool) workload{
	"run-tage":     newRunTage,
	"sweep-decode": newSweepDecode,
	"daemon-mix":   newDaemonMix,
}

// setupRounds is how many times a run sets the workload up; set-up time
// is their median.
const setupRounds = 3

// opCounter hands out op ids, which tie spans to ops.
type opCounter struct{ next int }

func (c *opCounter) id() int {
	c.next++
	return c.next
}

// window is what one timed window did.
type window struct {
	wall      time.Duration
	attempted int
	failed    int
	failures  []string
	// latencies are op latencies in seconds: runs, sweeps, or fresh jobs.
	latencies []float64
	// resubmits are daemon resubmissions served from the job store.
	resubmits []float64
	// cells is simulated branch-cells (branches times predictors) of the
	// ops that completed.
	cells uint64
	// layers are per-layer figures a workload reports beyond the spans.
	layers map[string]float64
	// Process figures over the window.
	cpu        time.Duration
	allocBytes uint64
	gcPause    time.Duration
	// forcedPause is the pause time of the collections the benchmark
	// forces between ops, left out of gcPause.
	forcedPause time.Duration
	// pending holds each op's output until check verifies it.
	pending any
}

func (w *window) fail(format string, args ...any) {
	w.failed++
	if len(w.failures) < 5 {
		w.failures = append(w.failures, fmt.Sprintf(format, args...))
	}
}

// measureWindow wraps a workload's measure with the process figures.
func measureWindow(wl workload, d time.Duration, t *tracer, ops *opCounter) (*window, error) {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	w, err := wl.measure(d, t, ops)
	if err != nil {
		return nil, err
	}
	w.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	w.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	w.gcPause = time.Duration(ms1.PauseTotalNs-ms0.PauseTotalNs) - w.forcedPause
	return w, nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// run executes one benchmark run and returns its result line.
func run(cfg config, stdout, stderr io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	wl := workloads[cfg.workload](cfg.seed, cfg.tiny)
	defer wl.teardown()

	// Set up several times and keep the last: set-up time is the median,
	// and each round starts from an empty directory.
	var setups, generate, encode []float64
	for i := 0; i < setupRounds; i++ {
		wl.teardown()
		sdir := filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return nil, err
		}
		var clk setupClock
		t := time.Now()
		if err := wl.setup(sdir, &clk); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, (time.Since(t) - clk.hash).Seconds())
		generate = append(generate, clk.generate.Seconds())
		encode = append(encode, clk.encode.Seconds())
		if i > 0 {
			if err := os.RemoveAll(filepath.Join(dir, fmt.Sprintf("setup-%d", i-1))); err != nil {
				return nil, err
			}
		}
	}
	correct := true
	for _, tf := range wl.traces() {
		if err := verifyTrace(tf); err != nil {
			fmt.Fprintln(stderr, "perfbench: trace check:", err)
			correct = false
		}
	}
	if err := wl.prepare(); err != nil {
		return nil, fmt.Errorf("computing references: %w", err)
	}
	branches, sbbtBytes, storedBytes := traceStats(wl.traces())

	ops := &opCounter{}
	length := time.Duration(cfg.seconds * float64(time.Second))
	var w, plain *window
	var tr *tracer
	if cfg.trace {
		// Half the window untraced, half traced: the untraced half gives
		// the process figures and the tracing overhead's base.
		if plain, err = measureWindow(wl, length/2, nil, ops); err != nil {
			return nil, err
		}
		wl.check(plain, nil, ops)
		tr = newTracer()
		if w, err = measureWindow(wl, length/2, tr, ops); err != nil {
			return nil, err
		}
	} else if w, err = measureWindow(wl, length, nil, ops); err != nil {
		return nil, err
	}
	// Peak memory up to the end of the window: the checks that follow hold
	// reference streams the program never sees.
	peakRSS := peakRSSMiB()
	wl.check(w, tr, ops)
	attempted, failed := w.attempted, w.failed
	failures := w.failures
	if plain != nil {
		attempted += plain.attempted
		failed += plain.failed
		failures = append(failures, plain.failures...)
	}
	for _, f := range failures {
		fmt.Fprintln(stderr, "perfbench: failed op:", f)
	}
	res := &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if attempted == 0 {
		return nil, fmt.Errorf("no op ran in the window")
	}

	wall := w.wall.Seconds()
	bps := float64(w.cells) / wall
	fmt.Fprintf(stderr, "perfbench: %s seed %d: %d ops (%d failed) in %.3f s, %d branch-cells\n",
		cfg.workload, cfg.seed, w.attempted, w.failed, wall, w.cells)
	if !cfg.trace {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["branches_per_s"] = metric{bps, "1/s"}
		res.Metrics["latency_p50_s"] = metric{median(w.latencies), "s"}
		res.Metrics["jobs_per_s"] = metric{float64(w.attempted) / wall, "1/s"}
		res.Metrics["peak_rss_mib"] = metric{peakRSS, "MiB"}
		res.Metrics["trace_bytes_per_branch"] = metric{float64(storedBytes) / float64(branches), "B"}
		extra := map[string]metric{}
		if len(w.latencies) >= 200 {
			extra["latency_p95_s"] = metric{quantile(w.latencies, 0.95), "s"}
		}
		if len(w.resubmits) > 0 {
			extra["resubmit_latency_p50_s"] = metric{median(w.resubmits), "s"}
		}
		if len(extra) > 0 {
			line, _ := json.Marshal(extra)
			fmt.Fprintf(stdout, "workload metrics: %s (fresh latencies %d, resubmits %d)\n", line, len(w.latencies), len(w.resubmits))
		}
		return res, nil
	}

	// Traced: per-layer figures.
	spans := tr.snapshot()
	bd := breakdown(spans)
	if !printBreakdown(stdout, bd) {
		res.Correct = false
	}
	spanFile := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := writeSpans(spanFile, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "spans: %d written to %s\n", len(spans), spanFile)
	kps, err := wl.kernelRate(kernelBudget(cfg))
	if err != nil {
		return nil, err
	}
	pw := plain.wall.Seconds()
	plainBPS := float64(plain.cells) / pw
	layers := map[string]metric{
		"tracegen.generate_s":            {median(generate), "s"},
		"compress.encode_s":              {median(encode), "s"},
		"compress.ratio":                 {float64(sbbtBytes) / float64(storedBytes), "x"},
		"bp.kernel_branches_per_s":       {kps, "1/s"},
		"host.cpu_utilization":           {plain.cpu.Seconds() / (pw * float64(runtime.GOMAXPROCS(0))), "ratio"},
		"runtime.alloc_bytes_per_branch": {float64(plain.allocBytes) / float64(plain.cells), "B"},
		"runtime.gc_pause_s":             {plain.gcPause.Seconds() / float64(plain.attempted), "s"},
		"trace.overhead":                 {plainBPS/bps - 1, "ratio"},
	}
	for name, v := range layerMedians(bd) {
		layers[name] = v
	}
	for name, v := range counterMetrics(w.layers) {
		layers[name] = v
	}
	if sr, ok := wl.(interface{ startSeconds() float64 }); ok {
		layers["daemon.start_s"] = metric{sr.startSeconds(), "s"}
	}
	fmt.Fprintln(stdout, "per-layer metrics:")
	var names []string
	for name := range layers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := layers[name]
		fmt.Fprintf(stdout, "  %-34s %16.6g %s\n", name, m.Value, m.Unit)
		if reported[name] {
			res.Metrics[name] = m
		}
	}
	fmt.Fprintf(stdout, "tracing overhead: untraced %.4g branches/s, traced %.4g branches/s\n", plainBPS, bps)
	return res, nil
}

// reported are the per-layer metrics every workload produces, and so the
// ones on the result line; the rest are printed above it by the workloads
// that exercise them.
var reported = map[string]bool{
	"tracegen.generate_s":            true,
	"compress.encode_s":              true,
	"compress.ratio":                 true,
	"trace.decode_s":                 true,
	"sim.sim_s":                      true,
	"bp.kernel_branches_per_s":       true,
	"host.cpu_utilization":           true,
	"runtime.alloc_bytes_per_branch": true,
	"runtime.gc_pause_s":             true,
	"op.other_s":                     true,
	"trace.overhead":                 true,
}

func kernelBudget(cfg config) time.Duration {
	if cfg.tiny {
		return 50 * time.Millisecond
	}
	return time.Second
}

// kindPriority orders op kinds for naming per-layer metrics: a layer's
// figure comes from the first kind whose ops record it.
var kindPriority = []string{"op", "job", "replay", "resubmit"}

// layerMedians turns the op breakdowns into per-layer metrics: for each
// layer, the median over ops of its self time in worker-seconds, taken
// from the first op kind (in kindPriority order) that records it, with
// ops where the layer did no work counted as zero. The root's self time is
// op.other_s, and trace.decode_s sums the decode layers of whichever
// trace path ran.
func layerMedians(bd []opBreakdown) map[string]metric {
	byKind := map[string][]opBreakdown{}
	for _, b := range bd {
		byKind[b.Kind] = append(byKind[b.Kind], b)
	}
	out := map[string]metric{}
	for _, kind := range kindPriority {
		ops := byKind[kind]
		layers := map[string]bool{}
		for _, b := range ops {
			for l := range b.Self {
				layers[l] = true
			}
		}
		for l := range layers {
			name := l + "_s"
			if l == "other" {
				name = "op.other_s"
				if kind != kindPriority[0] && kind != "job" {
					continue
				}
			}
			if _, done := out[name]; done {
				continue
			}
			vs := make([]float64, len(ops))
			for i, b := range ops {
				vs[i] = b.Self[l]
			}
			out[name] = metric{median(vs), "s"}
		}
		if _, done := out["trace.decode_s"]; !done && (layers["chunked.decode"] || layers["sbbt.decode"]) {
			vs := make([]float64, len(ops))
			for i, b := range ops {
				vs[i] = b.Self["chunked.decode"] + b.Self["sbbt.decode"] + b.Self["compress.decode"]
			}
			out["trace.decode_s"] = metric{median(vs), "s"}
		}
	}
	return out
}

// median and quantile interpolate linearly between the closest ranks of a
// sorted copy, never reordering the caller's slice.
func median(vs []float64) float64 { return quantile(vs, 0.5) }

func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
