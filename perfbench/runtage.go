package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"mbplib/internal/bp"
	"mbplib/internal/obs"
	"mbplib/internal/predictors/registry"
	"mbplib/internal/sim"
	"mbplib/internal/sweep"
	"mbplib/internal/tracegen"
)

// runTage is the run-tage workload: one long trace of the cbp5-train LONG
// server mix, stored as a seekable .sbbt.mlzs container, run again and
// again through TAGE the way mbprun runs it by default
// (sim.RunSetParallel at -j GOMAXPROCS, default cache, -decode-j 1). The
// predictor kernel and the sim loop take most of the time; a single trace
// leaves all but one worker idle and decodes chunks on the worker's own
// goroutine.
type runTage struct {
	spec tracegen.Spec
	tf   traceFile
	want expected
}

const runTagePredictor = "tage"

func newRunTage(seed uint64, tiny bool) workload {
	scale := uint64(250_000) // LONG traces are 8x: 2M branches
	if tiny {
		scale = 2_000
	}
	specs, err := tracegen.Suite("cbp5-train", scale)
	if err != nil {
		panic(err) // a fixed, known suite name
	}
	for _, s := range specs {
		if s.Name == "LONG_SERVER-1" {
			return &runTage{spec: reseed(s, seed)}
		}
	}
	panic("cbp5-train has no LONG_SERVER-1")
}

func (w *runTage) setup(dir string, clk *setupClock) error {
	tf, err := writeTrace(filepath.Join(dir, w.spec.Name+".sbbt.mlzs"), w.spec, clk)
	w.tf = tf
	return err
}

func (w *runTage) teardown()           {}
func (w *runTage) traces() []traceFile { return []traceFile{w.tf} }

func (w *runTage) prepare() error {
	tr, err := countTrace(w.spec)
	if err != nil {
		return err
	}
	w.want, err = reference(tr, runTagePredictor, func() (bp.Reader, error) { return tracegen.New(w.spec) })
	return err
}

// op is one mbprun invocation's work: build the sources, run the set,
// summarise it as mbprun -json does.
func (w *runTage) op(win *window, t *tracer, id int) (*cell, error) {
	root := t.begin(id, -1, "op", 1)
	defer t.end(root)
	workers := runtime.GOMAXPROCS(0)
	const width = 1 // the scheduler starts min(workers, cells) workers: one
	var col *obs.Collector
	var decodes *atomic.Int64
	if t != nil {
		col, decodes = obs.New(), new(atomic.Int64)
	}
	// mbprun's trace sources at -decode-j 1 are the ones sweep.Resolve
	// builds; tage:t=10 is the registry's default TAGE, and only the
	// sources are taken from the resolved spec.
	r, err := sweep.Spec{Traces: w.tf.path, Predictor: "tage:t=%d", From: 10, To: 10}.Resolve()
	if err != nil {
		return nil, err
	}
	if len(r.Sources) != 1 || r.Sources[0].Name != w.tf.path {
		return nil, fmt.Errorf("resolving %s gave %d sources", w.tf.path, len(r.Sources))
	}
	runID := t.begin(id, root, "sim.run_set", 1)
	srcs := r.Sources
	if t != nil {
		srcs = sources([]string{w.tf.path}, t, id, runID, width, decodes)
	}
	newPred := func() bp.Predictor {
		p, err := registry.New(runTagePredictor)
		if err != nil {
			panic(err) // a fixed, valid spec
		}
		return p
	}
	set, err := sim.RunSetParallel(srcs, newPred, sim.Config{Metrics: col}, sim.ParallelOptions{
		Workers: workers, CacheBytes: sim.DefaultCacheBytes, Metrics: col,
	})
	t.end(runID)
	if err != nil {
		return nil, err
	}
	recordCollector(win, t, id, runID, width, col, decodes)
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		Predictor string             `json:"predictor"`
		Summary   sim.SetSummary     `json:"summary"`
		Failures  []sim.TraceFailure `json:"failures,omitempty"`
	}{runTagePredictor, sim.Summarize(set.Results), set.Failures}); err != nil {
		return nil, err
	}
	if len(set.Failures) > 0 {
		return nil, fmt.Errorf("trace failed: %s", set.Failures[0].Message)
	}
	c := cellOf(set.Results[0])
	return &c, nil
}

func (w *runTage) measure(d time.Duration, t *tracer, ops *opCounter) (*window, error) {
	win := &window{layers: map[string]float64{}}
	var results []*cell
	start := time.Now()
	for time.Since(start) < d {
		collect(win)
		t0 := time.Now()
		res, err := w.op(win, t, ops.id())
		lat := time.Since(t0).Seconds()
		win.attempted++
		results = append(results, res)
		if err != nil {
			win.fail("run: %v", err)
			continue
		}
		win.latencies = append(win.latencies, lat)
		win.cells += w.tf.branches
	}
	win.wall = time.Since(start)
	win.pending = results
	return win, nil
}

func (w *runTage) check(win *window, t *tracer, ops *opCounter) {
	for _, c := range win.pending.([]*cell) {
		if c == nil {
			continue // already counted as failed
		}
		if err := checkCell(*c, w.want); err != nil {
			win.fail("run: %v", err)
		}
	}
	win.pending = nil
}

func (w *runTage) kernelRate(budget time.Duration) (float64, error) {
	return kernelRate([]traceFile{w.tf}, []string{runTagePredictor}, budget)
}
