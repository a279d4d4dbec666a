package main

import (
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"mbplib/internal/bp"
	"mbplib/internal/compress"
	"mbplib/internal/obs"
	"mbplib/internal/predictors/registry"
	"mbplib/internal/sbbt"
)

// recordCollector books what the program's obs collector measured during
// one op: its stage timers become aggregated spans under parent (the
// scheduler call, width workers wide), its counters add to the window's
// per-layer counts.
func recordCollector(win *window, t *tracer, op, parent, width int, col *obs.Collector, decodes *atomic.Int64) {
	if col == nil {
		return
	}
	t.aggregate(op, parent, "sim.sim", width, col.Stage(obs.StageSim).Total())
	t.aggregate(op, parent, "tracecache.wait", width, col.Stage(obs.StageCacheWait).Total())
	t.aggregate(op, parent, "journal.append", width, col.Stage(obs.StageJournal).Total())
	win.layers["count.ops"]++
	win.layers["count.cache_hits"] += float64(col.Ctr(obs.CtrCacheHits).Load())
	win.layers["count.cache_misses"] += float64(col.Ctr(obs.CtrCacheMisses).Load())
	win.layers["count.cache_evictions"] += float64(col.Ctr(obs.CtrCacheEvictions).Load())
	win.layers["count.scalar_batches"] += float64(col.Ctr(obs.CtrDispatchScalar).Load())
	win.layers["count.kernel_batches"] += float64(col.Ctr(obs.CtrDispatchKernel).Load())
	if decodes != nil {
		win.layers["count.chunk_decodes"] += float64(decodes.Load())
	}
}

// counterMetrics turns the window's summed counts into per-op figures.
func counterMetrics(layers map[string]float64) map[string]metric {
	ops := layers["count.ops"]
	if ops == 0 {
		return nil
	}
	out := map[string]metric{
		"tracecache.evictions": {layers["count.cache_evictions"] / ops, "count"},
		"sim.scalar_batches":   {layers["count.scalar_batches"] / ops, "count"},
		"sim.kernel_batches":   {layers["count.kernel_batches"] / ops, "count"},
		"chunked.decodes":      {layers["count.chunk_decodes"] / ops, "count"},
	}
	if lookups := layers["count.cache_hits"] + layers["count.cache_misses"]; lookups > 0 {
		out["tracecache.hit_ratio"] = metric{layers["count.cache_hits"] / lookups, "ratio"}
	}
	return out
}

// collect runs a garbage collection before an op, so each op starts from
// a collected heap as a separate invocation of the command would, and the
// previous op's garbage does not count toward this one's peak memory. Its
// pause time is booked apart from the program's.
func collect(win *window) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runtime.GC()
	runtime.ReadMemStats(&after)
	win.forcedPause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
}

// kernelEvents is how many decoded events per trace kernelRate replays at
// most, to bound its memory.
const kernelEvents = 1 << 20

// kernelRate measures bp.SimulateBatch alone: each trace's events are
// decoded once with the program's reader, then replayed in simulator-sized
// batches through fresh predictors of each spec in turn until budget is
// spent. It returns branches per second.
func kernelRate(tfs []traceFile, predSpecs []string, budget time.Duration) (float64, error) {
	var traces [][]bp.Branch
	for _, tf := range tfs {
		f, err := compress.OpenFile(tf.path)
		if err != nil {
			return 0, err
		}
		r, err := sbbt.NewReader(f)
		if err != nil {
			f.Close()
			return 0, err
		}
		n := min(tf.branches, kernelEvents)
		evs := make([]bp.Event, n)
		got, err := r.ReadBatch(evs)
		for err == nil && uint64(got) < n {
			var m int
			m, err = r.ReadBatch(evs[got:])
			got += m
		}
		f.Close()
		if err != nil && err != io.EOF {
			return 0, err
		}
		brs := make([]bp.Branch, got)
		for i := range brs {
			brs[i] = evs[i].Branch
		}
		traces = append(traces, brs)
	}
	out := make([]bp.Prediction, 4096)
	var branches uint64
	var spent time.Duration
	for i := 0; spent < budget || i < len(predSpecs); i++ {
		p, err := registry.New(predSpecs[i%len(predSpecs)])
		if err != nil {
			return 0, err
		}
		for _, brs := range traces {
			t := time.Now()
			for off := 0; off < len(brs); off += len(out) {
				end := min(off+len(out), len(brs))
				bp.SimulateBatch(p, brs[off:end], out)
			}
			spent += time.Since(t)
			branches += uint64(len(brs))
		}
	}
	return float64(branches) / spent.Seconds(), nil
}
