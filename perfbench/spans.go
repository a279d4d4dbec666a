package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer of the program, recorded by the
// benchmark's own wrappers around the program's public functions. Spans of
// one op share Op; Parent links a call to the call that caused it.
//
// Width is the number of goroutines that run the section a span belongs to
// side by side (the sweep scheduler's workers, or 1 on the caller's
// goroutine). A child in a section k wide covers 1/k of its parent's wall
// time per second it lasts, which is what lets the self times of parallel
// workers add up to the op's wall time.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an op's root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Width  int    `json:"width"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Agg marks a span that sums many calls (or a stage timer of the
	// program's obs collector) rather than one interval; its start is
	// nominal and only its length counts.
	Agg bool `json:"agg,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op that reads no clock.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(op, parent int, name string, width int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Width: width, Start: now, End: now})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// interval records a span from timestamps taken elsewhere, such as the
// created/started/finished times of a daemon job document.
func (t *tracer) interval(op, parent int, name string, width int, from, to time.Time) {
	if t == nil {
		return
	}
	s, e := int64(from.Sub(t.t0)), int64(to.Sub(t.t0))
	if e < s {
		e = s
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Width: width, Start: s, End: e})
	t.mu.Unlock()
}

// aggregate records a span that stands for d of accumulated time under
// parent, such as a stage timer of the program's obs collector.
func (t *tracer) aggregate(op, parent int, name string, width int, d time.Duration) {
	if t == nil || d <= 0 {
		return
	}
	t.mu.Lock()
	start := t.spans[parent].Start
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Width: width, Start: start, End: start + int64(d), Agg: true})
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes the span file: one JSON document with every span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans []span `json:"spans"`
	}{spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opBreakdown is one op's wall time split by layer.
type opBreakdown struct {
	Op   int
	Kind string // the root span's name
	Wall float64
	// Share is each layer's self time as a share of the op's wall time, in
	// seconds; the root's own self time is "other". Shares and other add
	// up to Wall whenever every child lies inside its parent.
	Share map[string]float64
	// Self is each layer's self time summed over the goroutines it ran on
	// (worker-seconds).
	Self map[string]float64
	// Worst is the most negative self time of any span, as a share of
	// Wall: children that outlast their parent mean double counting.
	Worst float64
}

// breakdown computes every op's self times. A span's self time is its
// length minus the part its children cover; a child running in a section
// k wide covers its length times parentWidth/k.
func breakdown(spans []span) []opBreakdown {
	children := map[int][]int{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	byOp := map[int]*opBreakdown{}
	var order []int
	for _, s := range spans {
		if s.Parent >= 0 {
			continue
		}
		b := &opBreakdown{Op: s.Op, Kind: s.Name, Wall: seconds(s.End - s.Start), Share: map[string]float64{}, Self: map[string]float64{}}
		byOp[s.ID] = b
		order = append(order, s.ID)
	}
	var walk func(id int, b *opBreakdown, scale float64)
	walk = func(id int, b *opBreakdown, scale float64) {
		s := spans[id]
		self := float64(s.End - s.Start)
		for _, cid := range children[id] {
			c := spans[cid]
			d := float64(c.End - c.Start)
			if !c.Agg {
				d = float64(clip(c.End, s.Start, s.End) - clip(c.Start, s.Start, s.End))
			}
			self -= d * float64(s.Width) / float64(c.Width)
		}
		name := s.Name
		if s.Parent < 0 {
			name = "other"
		}
		b.Self[name] += self / 1e9
		b.Share[name] += self / 1e9 * scale
		if b.Wall > 0 && self/1e9/b.Wall < b.Worst {
			b.Worst = self / 1e9 / b.Wall
		}
		for _, cid := range children[id] {
			walk(cid, b, scale*float64(s.Width)/float64(spans[cid].Width))
		}
	}
	out := make([]opBreakdown, 0, len(order))
	for _, id := range order {
		b := byOp[id]
		walk(id, b, 1)
		out = append(out, *b)
	}
	return out
}

func clip(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// selfTimeTolerance bounds how far measured layer times may exceed an op's
// wall time (as a share of it) before the breakdown counts as double
// counting. Wrapper clock reads and goroutine hand-offs between a child's
// end and its parent's make up the slack.
const selfTimeTolerance = 0.02

// printBreakdown prints, per op kind, each layer's median wall share and
// worker-seconds per op, with the unattributed rest as other. Shares and
// other add up to the op's wall time by construction, so the check is that
// no span's children overrun it, which would count time twice: it returns
// false when some self time is negative by more than selfTimeTolerance of
// its op's wall time.
func printBreakdown(w io.Writer, ops []opBreakdown) bool {
	kinds := map[string][]opBreakdown{}
	var names []string
	for _, b := range ops {
		if _, ok := kinds[b.Kind]; !ok {
			names = append(names, b.Kind)
		}
		kinds[b.Kind] = append(kinds[b.Kind], b)
	}
	ok := true
	for _, kind := range names {
		group := kinds[kind]
		layers := map[string]bool{}
		worst := 0.0
		for _, b := range group {
			for l := range b.Share {
				layers[l] = true
			}
			if b.Worst < worst {
				worst = b.Worst
			}
		}
		var ls []string
		for l := range layers {
			ls = append(ls, l)
		}
		sort.Strings(ls)
		walls := make([]float64, len(group))
		for i, b := range group {
			walls[i] = b.Wall
		}
		fmt.Fprintf(w, "self time per %s op (%d ops, median wall %.6f s):\n", kind, len(group), median(walls))
		fmt.Fprintf(w, "  %-24s %14s %10s %16s\n", "layer", "wall share s", "share %", "worker-s per op")
		for _, l := range ls {
			shares := make([]float64, len(group))
			selfs := make([]float64, len(group))
			var shareSum, wallSum float64
			for i, b := range group {
				shares[i], selfs[i] = b.Share[l], b.Self[l]
				shareSum += b.Share[l]
				wallSum += b.Wall
			}
			fmt.Fprintf(w, "  %-24s %14.6f %9.2f%% %16.6f\n", l, median(shares), 100*shareSum/wallSum, median(selfs))
		}
		verdict := "ok"
		if -worst > selfTimeTolerance {
			verdict = "FAILED"
			ok = false
		}
		fmt.Fprintf(w, "  check: most negative self time %.3f%% of an op's wall time, tolerance %.0f%%: %s\n",
			100*worst, 100*selfTimeTolerance, verdict)
	}
	return ok
}
