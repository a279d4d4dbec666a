package main

import (
	"io"
	"sync/atomic"
	"time"

	"mbplib/internal/bp"
	"mbplib/internal/chunked"
	"mbplib/internal/compress"
	"mbplib/internal/sbbt"
	"mbplib/internal/sim"
)

// sources builds traced copies of the trace sources sweep.Spec.Resolve
// builds: a streaming Open closure (transparent decompression, then the SBBT
// reader) and, for seekable containers, a chunk-granular OpenChunked
// closure. They make the same calls as the program's closures with timing
// layers between, and record spans under parent; width is the scheduler
// width the closures are called at. decodes, if not nil, counts chunk
// decodes. Untraced runs use the program's own sources.
func sources(paths []string, t *tracer, op, parent, width int, decodes *atomic.Int64) []sim.TraceSource {
	out := make([]sim.TraceSource, len(paths))
	for i, path := range paths {
		out[i] = sim.TraceSource{Name: path, Open: openStream(path, t, op, parent, width)}
		if compress.FormatForPath(path) == compress.FormatMLZS {
			out[i].OpenChunked = openChunked(path, t, op, parent, width, decodes)
		}
	}
	return out
}

// openStream is the streaming open closure, with a timing layer between
// the decompressor and the SBBT reader and another around the SBBT
// reader's ReadBatch.
func openStream(path string, t *tracer, op, parent, width int) func() (bp.Reader, io.Closer, error) {
	return func() (bp.Reader, io.Closer, error) {
		id := t.begin(op, parent, "trace.open", width)
		defer t.end(id)
		f, err := compress.OpenFileParallel(path, 1)
		if err != nil {
			return nil, nil, err
		}
		tr := &timedReader{r: f}
		r, err := sbbt.NewReader(tr)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		t.aggregate(op, id, "compress.decode", width, tr.take())
		return &timedBatchReader{r: r, in: tr, t: t, op: op, parent: parent, width: width}, f, nil
	}
}

// timedReader accumulates the time spent in the decompressor's Read. Its
// calls are a few microseconds each, too fine for one span apiece, so the
// time is summed and booked once per enclosing ReadBatch.
type timedReader struct {
	r  io.Reader
	ns int64
}

func (r *timedReader) Read(p []byte) (int, error) {
	t := time.Now()
	n, err := r.r.Read(p)
	r.ns += int64(time.Since(t))
	return n, err
}

func (r *timedReader) take() time.Duration {
	d := time.Duration(r.ns)
	r.ns = 0
	return d
}

// timedBatchReader records one sbbt.decode span per ReadBatch call, with
// the nested decompressor reads as its compress.decode child.
type timedBatchReader struct {
	r      *sbbt.Reader
	in     *timedReader
	t      *tracer
	op     int
	parent int
	width  int
}

func (r *timedBatchReader) Read() (bp.Event, error) {
	var ev [1]bp.Event
	n, err := r.ReadBatch(ev[:])
	if n == 1 {
		return ev[0], nil
	}
	return bp.Event{}, err
}

func (r *timedBatchReader) ReadBatch(dst []bp.Event) (int, error) {
	id := r.t.begin(r.op, r.parent, "sbbt.decode", r.width)
	n, err := r.r.ReadBatch(dst)
	r.t.end(id)
	r.t.aggregate(r.op, id, "compress.decode", r.width, r.in.take())
	return n, err
}

// TotalBranches and TotalInstructions forward bp.Sizer, which the
// simulator and the trace cache use to size their buffers.
func (r *timedBatchReader) TotalBranches() uint64     { return r.r.TotalBranches() }
func (r *timedBatchReader) TotalInstructions() uint64 { return r.r.TotalInstructions() }

// openChunked is the chunk-granular open closure. Every DecodeChunk call
// (container decompression plus SBBT packet decode) records a
// chunked.decode span.
func openChunked(path string, t *tracer, op, parent, width int, decodes *atomic.Int64) func() (sim.ChunkedTrace, error) {
	return func() (sim.ChunkedTrace, error) {
		id := t.begin(op, parent, "chunked.open", width)
		ct, err := chunked.Open(path)
		t.end(id)
		if err != nil {
			return nil, err
		}
		return &timedChunks{Trace: ct, t: t, op: op, parent: parent, width: width, decodes: decodes}, nil
	}
}

type timedChunks struct {
	*chunked.Trace
	t       *tracer
	op      int
	parent  int
	width   int
	decodes *atomic.Int64
}

func (c *timedChunks) DecodeChunk(i int) ([]bp.Event, error) {
	id := c.t.begin(c.op, c.parent, "chunked.decode", c.width)
	evs, err := c.Trace.DecodeChunk(i)
	c.t.end(id)
	if c.decodes != nil {
		c.decodes.Add(1)
	}
	return evs, err
}
