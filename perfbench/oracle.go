package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"mbplib/internal/bp"
	"mbplib/internal/predictors/registry"
	"mbplib/internal/sim"
	"mbplib/internal/tracegen"
)

// This file holds the reference side of every check: figures computed
// from the trace generator's raw event stream, with no container, SBBT
// codec, cache, kernel, scheduler or daemon in between.

// truth is what a trace holds, counted straight from the generator.
type truth struct {
	branches     uint64 // dynamic branches
	conditional  uint64 // dynamic conditional branches
	static       uint64 // distinct branch addresses
	instructions uint64
}

// countTrace counts spec's branches, conditional branches, distinct branch
// addresses and instructions from the generator stream.
func countTrace(spec tracegen.Spec) (truth, error) {
	var tr truth
	g, err := tracegen.New(spec)
	if err != nil {
		return tr, err
	}
	seen := map[uint64]struct{}{}
	buf := make([]bp.Event, 4096)
	for {
		n, rerr := g.ReadBatch(buf)
		for _, ev := range buf[:n] {
			tr.branches++
			tr.instructions += ev.InstrsSinceLastBranch + 1
			if ev.Branch.Opcode.IsConditional() {
				tr.conditional++
			}
			seen[ev.Branch.IP] = struct{}{}
		}
		if rerr == io.EOF {
			tr.static = uint64(len(seen))
			return tr, nil
		}
		if rerr != nil {
			return tr, rerr
		}
	}
}

// events materialises spec's generator stream in memory, for traces small
// enough that many reference runs replay them.
func events(spec tracegen.Spec) ([]bp.Event, error) {
	g, err := tracegen.New(spec)
	if err != nil {
		return nil, err
	}
	evs := make([]bp.Event, spec.Branches)
	n, err := g.ReadBatch(evs)
	if err != nil && err != io.EOF {
		return nil, err
	}
	return evs[:n], nil
}

// sliceReader replays an in-memory event stream one Read at a time.
type sliceReader struct {
	evs []bp.Event
	i   int
}

func (r *sliceReader) Read() (bp.Event, error) {
	if r.i >= len(r.evs) {
		return bp.Event{}, io.EOF
	}
	r.i++
	return r.evs[r.i-1], nil
}

// scalarMisses runs predictor spec over the raw event stream through the
// simulator's scalar reference loop, sim.RunScalar.
func scalarMisses(r bp.Reader, predSpec string) (uint64, error) {
	p, err := registry.New(predSpec)
	if err != nil {
		return 0, err
	}
	res, err := sim.RunScalar(r, p, sim.Config{})
	if err != nil {
		return 0, err
	}
	return res.Metrics.Mispredictions, nil
}

// refBimodal is a bimodal predictor written for the benchmark, apart from
// internal/predictors: 2^logSize two-bit signed counters starting at 0,
// indexed by the branch address shifted right by two and XOR-folded to
// logSize bits; taken is predicted when the counter is non-negative.
type refBimodal struct {
	logSize uint
	table   []int8
}

func newRefBimodal(logSize int) *refBimodal {
	return &refBimodal{logSize: uint(logSize), table: make([]int8, 1<<logSize)}
}

func (b *refBimodal) index(ip uint64) uint64 {
	x, folded := ip>>2, uint64(0)
	for x != 0 {
		folded ^= x & (1<<b.logSize - 1)
		x >>= b.logSize
	}
	return folded
}

// misses replays a stream and counts conditional mispredictions.
func (b *refBimodal) misses(r bp.Reader) (uint64, error) {
	var n uint64
	for {
		ev, err := r.Read()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return 0, err
		}
		if !ev.Branch.Opcode.IsConditional() {
			continue
		}
		c := &b.table[b.index(ev.Branch.IP)]
		if (*c >= 0) != ev.Branch.Taken {
			n++
		}
		switch {
		case ev.Branch.Taken && *c < 1:
			*c++
		case !ev.Branch.Taken && *c > -2:
			*c--
		}
	}
}

// bimodalLogSize returns t of a "bimodal:t=N" spec, and false for any
// other predictor.
func bimodalLogSize(predSpec string) (int, bool) {
	rest, ok := strings.CutPrefix(predSpec, "bimodal:t=")
	if !ok {
		return 0, false
	}
	t, err := strconv.Atoi(rest)
	return t, err == nil
}

// expected is the reference outcome of one (trace, predictor) cell.
type expected struct {
	truth  truth
	misses uint64 // sim.RunScalar over the raw stream
	// bimodal is refBimodal's count for bimodal specs, -1 otherwise.
	bimodal int64
}

// cell is the part of one simulated (trace, predictor) result the checks
// read. Ops keep cells rather than whole results until they are checked:
// a result's most-failed report can run to thousands of branches.
type cell struct {
	trace        string
	exhausted    bool
	instructions uint64
	conditional  uint64
	static       uint64
	misses       uint64
}

func cellOf(res *sim.Result) cell {
	md := res.Metadata
	return cell{md.Trace, md.ExhaustedTrace, md.SimulationInstr, md.NumConditionalBranches, md.NumBranchInstructions, res.Metrics.Mispredictions}
}

// checkCell compares one simulated cell with its reference.
func checkCell(c cell, want expected) error {
	switch {
	case !c.exhausted:
		return fmt.Errorf("%s: trace not exhausted", c.trace)
	case c.instructions != want.truth.instructions:
		return fmt.Errorf("%s: %d instructions, generator has %d", c.trace, c.instructions, want.truth.instructions)
	case c.conditional != want.truth.conditional:
		return fmt.Errorf("%s: %d conditional branches, generator has %d", c.trace, c.conditional, want.truth.conditional)
	case c.static != want.truth.static:
		return fmt.Errorf("%s: %d branch instructions, generator has %d", c.trace, c.static, want.truth.static)
	case c.misses != want.misses:
		return fmt.Errorf("%s: %d mispredictions, RunScalar has %d", c.trace, c.misses, want.misses)
	case want.bimodal >= 0 && c.misses != uint64(want.bimodal):
		return fmt.Errorf("%s: %d mispredictions, the benchmark's bimodal has %d", c.trace, c.misses, want.bimodal)
	}
	return nil
}

// reference computes the expected outcome of predictor predSpec over a
// trace: counts from the generator, mispredictions from sim.RunScalar over
// the raw stream, and for bimodal specs a second count from refBimodal.
// open returns a fresh raw stream each call.
func reference(tr truth, predSpec string, open func() (bp.Reader, error)) (expected, error) {
	r, err := open()
	if err != nil {
		return expected{}, err
	}
	misses, err := scalarMisses(r, predSpec)
	if err != nil {
		return expected{}, err
	}
	want := expected{truth: tr, misses: misses, bimodal: -1}
	if t, ok := bimodalLogSize(predSpec); ok {
		r, err := open()
		if err != nil {
			return expected{}, err
		}
		own, err := newRefBimodal(t).misses(r)
		if err != nil {
			return expected{}, err
		}
		want.bimodal = int64(own)
	}
	return want, nil
}
