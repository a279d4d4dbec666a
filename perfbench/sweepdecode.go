package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"sync/atomic"
	"time"

	"mbplib/internal/bench"
	"mbplib/internal/bp"
	"mbplib/internal/obs"
	"mbplib/internal/sim"
	"mbplib/internal/sweep"
	"mbplib/internal/tracegen"
)

// sweepDecode is the sweep-decode workload: one sweep.Spec, a cheap
// bimodal family over high-entropy seekable traces (the bench.SweepSpecs
// kernel mix), resolved, run at -j 2 and rendered again and again. The
// trace cache budget is a fraction of one trace's decoded size, as a long
// trace against the default budget would be, so chunks are evicted and
// decoded again for every swept value: container and SBBT decode dominate
// and the predictor kernel is a minority.
type sweepDecode struct {
	specs []tracegen.Spec
	tfs   []traceFile
	dir   string
	want  map[string]expected // by trace path + "\x00" + predictor spec
}

const (
	sweepFamily = "bimodal:t=%d"
	sweepFrom   = 10
	sweepTo     = 13
	sweepJobs   = 2
	// sweepCacheBytes holds two 1 MiB-raw chunks of decoded events (64K
	// events of 32 bytes each), a fifth of one full-size trace.
	sweepCacheBytes = 4 << 20
)

func newSweepDecode(seed uint64, tiny bool) workload {
	n, scale := 3, uint64(300_000)
	if tiny {
		n, scale = 2, 20_000
	}
	specs := bench.SweepSpecs(n, scale)
	for i := range specs {
		specs[i] = reseed(specs[i], seed)
	}
	return &sweepDecode{specs: specs}
}

func (w *sweepDecode) setup(dir string, clk *setupClock) error {
	w.dir, w.tfs = dir, nil
	for _, spec := range w.specs {
		tf, err := writeTrace(filepath.Join(dir, spec.Name+".sbbt.mlzs"), spec, clk)
		if err != nil {
			return err
		}
		w.tfs = append(w.tfs, tf)
	}
	return nil
}

func (w *sweepDecode) teardown()           {}
func (w *sweepDecode) traces() []traceFile { return w.tfs }

func (w *sweepDecode) spec() sweep.Spec {
	return sweep.Spec{Traces: filepath.Join(w.dir, "*.sbbt.mlzs"), Predictor: sweepFamily, From: sweepFrom, To: sweepTo}
}

func (w *sweepDecode) prepare() error {
	w.want = map[string]expected{}
	for _, tf := range w.tfs {
		tr, err := countTrace(tf.spec)
		if err != nil {
			return err
		}
		spec := tf.spec
		for v := sweepFrom; v <= sweepTo; v++ {
			pred := fmt.Sprintf(sweepFamily, v)
			want, err := reference(tr, pred, func() (bp.Reader, error) { return tracegen.New(spec) })
			if err != nil {
				return err
			}
			w.want[tf.path+"\x00"+pred] = want
		}
	}
	return nil
}

// sweepOutput is what one sweep produced.
type sweepOutput struct {
	specs []string
	cells [][]*cell // by predictor, then trace; nil where a result is missing
	exit  int
}

// op is one mbpsweep -json invocation's work: resolve, run, render.
func (w *sweepDecode) op(win *window, t *tracer, id int) (*sweepOutput, error) {
	root := t.begin(id, -1, "op", 1)
	defer t.end(root)
	sid := t.begin(id, root, "sweep.resolve", 1)
	r, err := w.spec().Resolve()
	t.end(sid)
	if err != nil {
		return nil, err
	}
	var col *obs.Collector
	var decodes *atomic.Int64
	runID := t.begin(id, root, "sweep.run", 1)
	if t != nil {
		col, decodes = obs.New(), new(atomic.Int64)
		paths := make([]string, len(r.Sources))
		for i, src := range r.Sources {
			paths[i] = src.Name
		}
		r.Sources = sources(paths, t, id, runID, sweepJobs, decodes)
	}
	sets, err := r.Run(sweep.RunOptions{Jobs: sweepJobs, CacheBytes: sweepCacheBytes, Policy: sim.Policy{Mode: sim.FailFast}, Metrics: col})
	t.end(runID)
	if err != nil {
		return nil, err
	}
	recordCollector(win, t, id, runID, sweepJobs, col, decodes)
	rid := t.begin(id, root, "sweep.render", 1)
	var rendered bytes.Buffer
	exit := sweep.Render(&rendered, io.Discard, r.Specs, sets, len(r.Sources), true)
	t.end(rid)
	return &sweepOutput{specs: r.Specs, cells: cellsOf(sets), exit: exit}, nil
}

func (w *sweepDecode) measure(d time.Duration, t *tracer, ops *opCounter) (*window, error) {
	win := &window{layers: map[string]float64{}}
	var outs []*sweepOutput
	cells := uint64(sweepTo-sweepFrom+1) * w.branches()
	start := time.Now()
	for time.Since(start) < d {
		collect(win)
		t0 := time.Now()
		out, err := w.op(win, t, ops.id())
		lat := time.Since(t0).Seconds()
		win.attempted++
		outs = append(outs, out)
		if err != nil {
			win.fail("sweep: %v", err)
			continue
		}
		win.latencies = append(win.latencies, lat)
		win.cells += cells
	}
	win.wall = time.Since(start)
	win.pending = outs
	return win, nil
}

func (w *sweepDecode) branches() uint64 {
	b, _, _ := traceStats(w.tfs)
	return b
}

func (w *sweepDecode) check(win *window, t *tracer, ops *opCounter) {
	for _, out := range win.pending.([]*sweepOutput) {
		if out == nil {
			continue // already counted as failed
		}
		if err := w.checkSweep(out); err != nil {
			win.fail("sweep: %v", err)
		}
	}
	win.pending = nil
}

func (w *sweepDecode) checkSweep(out *sweepOutput) error {
	if out.exit != sweep.ExitOK {
		return fmt.Errorf("exit code %d", out.exit)
	}
	if len(out.cells) != len(out.specs) {
		return fmt.Errorf("%d result sets for %d predictors", len(out.cells), len(out.specs))
	}
	for i, cells := range out.cells {
		if len(cells) != len(w.tfs) {
			return fmt.Errorf("%s: %d results for %d traces", out.specs[i], len(cells), len(w.tfs))
		}
		for _, c := range cells {
			if c == nil {
				return fmt.Errorf("%s: missing result", out.specs[i])
			}
			want, ok := w.want[c.trace+"\x00"+out.specs[i]]
			if !ok {
				return fmt.Errorf("%s: unexpected cell %s", out.specs[i], c.trace)
			}
			if err := checkCell(*c, want); err != nil {
				return fmt.Errorf("%s: %w", out.specs[i], err)
			}
		}
	}
	return nil
}

// cellsOf keeps the checked part of every result of a sweep.
func cellsOf(sets []*sim.SetResult) [][]*cell {
	out := make([][]*cell, len(sets))
	for i, set := range sets {
		out[i] = make([]*cell, len(set.Results))
		for j, res := range set.Results {
			if res != nil {
				c := cellOf(res)
				out[i][j] = &c
			}
		}
	}
	return out
}

func (w *sweepDecode) kernelRate(budget time.Duration) (float64, error) {
	var preds []string
	for v := sweepFrom; v <= sweepTo; v++ {
		preds = append(preds, fmt.Sprintf(sweepFamily, v))
	}
	return kernelRate(w.tfs, preds, budget)
}
