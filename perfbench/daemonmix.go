package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mbplib/internal/api"
	"mbplib/internal/bp"
	"mbplib/internal/cliflags"
	"mbplib/internal/daemon"
	"mbplib/internal/obs"
	"mbplib/internal/sim"
	"mbplib/internal/sim/journal"
	"mbplib/internal/sweep"
	"mbplib/internal/tracegen"
)

// daemonMix is the daemon-mix workload: an in-process mbpd daemon
// (daemon.New and its Handler on a loopback listener, job store on disk)
// driven by two closed-loop clients. Each client submits a small gshare
// sweep over three of six stream-compressed .sbbt.mlz traces, waits for
// the job on the /events stream and fetches its result. Every fourth
// submission of a client repeats a spec it already saw finish, which the
// daemon serves from its job store as cached; every other spec is new.
// This path runs the stream decoder, whole-trace cache hits, the per-cell
// journal fsync, digesting on every submit and the job queue.
type daemonMix struct {
	specs []tracegen.Spec
	order []api.SweepSpec // fresh specs in submission order, from the seed
	next  atomic.Int64    // index of the next fresh spec in order
	seed  uint64
	tiny  bool

	dir    string
	tfs    []traceFile
	d      *daemon.Daemon
	srv    *http.Server
	served chan struct{} // closed when the server's Serve returns
	base   string
	starts []float64 // daemon start times of every setup round
	server *serverSpans

	evs  map[string][]bp.Event // raw generator streams by trace path, loaded by expect
	tr   map[string]truth
	want map[string]expected // by trace path + "\x00" + predictor spec
	// local holds the rendered local result of every spec checked so far.
	local map[string][]byte
	// results holds every checked local cell result, by trace path +
	// "\x00" + predictor spec.
	results map[string]*sim.Result
}

const (
	daemonClients  = 2
	daemonTraces   = 6
	daemonPerJob   = 3  // traces per job
	daemonMaxHist  = 16 // gshare history lengths 1..16
	resubmitEvery  = 4  // every 4th submission of a client repeats a spec
	daemonMinFresh = 200
)

// daemonTableBits is the gshare table size (log2 entries) jobs use. One
// size keeps the distinct cells, each checked against its own reference,
// to a hundred.
const daemonTableBits = 14

func newDaemonMix(seed uint64, tiny bool) workload {
	scale := uint64(400_000)
	if tiny {
		scale = 2_000
	}
	all, err := tracegen.Suite("cbp5-train", scale)
	if err != nil {
		panic(err) // a fixed, known suite name
	}
	var specs []tracegen.Spec
	for _, s := range all {
		if strings.HasPrefix(s.Name, "SHORT_") {
			specs = append(specs, reseed(s, seed))
		}
	}
	if len(specs) != daemonTraces {
		panic(fmt.Sprintf("cbp5-train has %d SHORT traces, want %d", len(specs), daemonTraces))
	}
	return &daemonMix{specs: specs, seed: seed, tiny: tiny}
}

// specSpace lists every distinct job: a gshare history-length pair over
// one three-trace subset, in an order shuffled by the seed. Traces are
// chosen by a character class in the glob.
func (w *daemonMix) specSpace() []api.SweepSpec {
	var subsets []string
	for m := 0; m < 1<<daemonTraces; m++ {
		var digits string
		for i := 0; i < daemonTraces; i++ {
			if m&(1<<i) != 0 {
				digits += strconv.Itoa(i)
			}
		}
		if len(digits) == daemonPerJob {
			subsets = append(subsets, digits)
		}
	}
	var out []api.SweepSpec
	for _, sub := range subsets {
		for step := 1; step < daemonMaxHist; step++ {
			for from := 1; from+step <= daemonMaxHist; from++ {
				out = append(out, api.SweepSpec{
					Traces:    filepath.Join(w.dir, "t["+sub+"]-*.sbbt.mlz"),
					Predictor: "gshare:h=%d,t=" + strconv.Itoa(daemonTableBits),
					From:      from, To: from + step, Step: step,
				})
			}
		}
	}
	rng := mix(w.seed ^ 0xda3e39cb94b95bdb)
	for i := len(out) - 1; i > 0; i-- {
		rng = mix(rng)
		j := int(rng % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func (w *daemonMix) setup(dir string, clk *setupClock) error {
	w.dir, w.tfs = dir, nil
	for i, spec := range w.specs {
		tf, err := writeTrace(filepath.Join(dir, fmt.Sprintf("t%d-%s.sbbt.mlz", i, spec.Name)), spec, clk)
		if err != nil {
			return err
		}
		w.tfs = append(w.tfs, tf)
	}
	t := time.Now()
	d, err := daemon.New(daemon.Config{
		DataDir: filepath.Join(dir, "mbpd"),
		Jobs:    0, // GOMAXPROCS, mbpd's -j default
		// mbpd's defaults for the rest.
		CacheBytes:      sim.DefaultCacheBytes,
		CheckpointEvery: cliflags.DefaultCheckpointEvery,
		Backoff:         100 * time.Millisecond,
		Logf:            func(format string, args ...any) { fmt.Fprintf(io.Discard, format, args...) },
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.server = &serverSpans{next: d.Handler()}
	w.d, w.srv, w.base = d, &http.Server{Handler: w.server}, "http://"+ln.Addr().String()
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		if err := w.srv.Serve(ln); err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "perfbench: serving the daemon:", err)
		}
	}()
	d.Start()
	w.starts = append(w.starts, time.Since(t).Seconds())
	w.order = w.specSpace()
	w.next.Store(0)
	return nil
}

func (w *daemonMix) teardown() {
	if w.d == nil {
		return
	}
	if err := w.d.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: closing daemon:", err)
	}
	if err := w.srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: closing server:", err)
	}
	<-w.served
	w.d, w.srv = nil, nil
}

func (w *daemonMix) traces() []traceFile { return w.tfs }

func (w *daemonMix) prepare() error {
	w.evs, w.tr = map[string][]bp.Event{}, map[string]truth{}
	w.want, w.local, w.results = map[string]expected{}, map[string][]byte{}, map[string]*sim.Result{}
	for _, tf := range w.tfs {
		tr, err := countTrace(tf.spec)
		if err != nil {
			return err
		}
		w.tr[tf.path] = tr
	}
	return nil
}

// jobRecord is what a client saw of one submission.
type jobRecord struct {
	spec    api.SweepSpec
	fresh   bool
	latency float64
	body    []byte
	err     error
}

// client is one closed-loop client with its own connection.
type client struct {
	hc   *http.Client
	base string
	t    *tracer
	rng  uint64
	done []api.SweepSpec // fresh specs this client saw finish
	recs []jobRecord
}

func (w *daemonMix) measure(d time.Duration, t *tracer, ops *opCounter) (*window, error) {
	win := &window{layers: map[string]float64{}}
	w.server.t.Store(t)
	minFresh := int64(daemonMinFresh)
	if w.tiny {
		minFresh = 0
	}
	var fresh atomic.Int64
	var opMu sync.Mutex
	nextOp := func() int {
		opMu.Lock()
		defer opMu.Unlock()
		return ops.id()
	}
	start := time.Now()
	deadline, hardStop := start.Add(d), start.Add(3*d)
	clients := make([]*client, daemonClients)
	var wg sync.WaitGroup
	for i := range clients {
		c := &client{
			hc:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
			base: w.base, t: t, rng: mix(w.seed + uint64(i) + 1),
		}
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				now := time.Now()
				// Run past the window only while too few fresh jobs have
				// finished for a 95th percentile with ten beyond it.
				if now.After(deadline) && (fresh.Load() >= minFresh || now.After(hardStop)) {
					return
				}
				if k%resubmitEvery == resubmitEvery-1 && len(c.done) > 0 {
					c.rng = mix(c.rng)
					c.submit(nextOp(), c.done[c.rng%uint64(len(c.done))], false)
					continue
				}
				n := int(w.next.Add(1) - 1)
				if n >= len(w.order) {
					c.recs = append(c.recs, jobRecord{err: errors.New("every distinct spec has been submitted")})
					return
				}
				if c.submit(nextOp(), w.order[n], true) {
					fresh.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	win.wall = time.Since(start)
	var recs []jobRecord
	for _, c := range clients {
		c.hc.CloseIdleConnections()
		recs = append(recs, c.recs...)
	}
	for _, rec := range recs {
		win.attempted++
		if rec.err != nil {
			win.fail("job: %v", rec.err)
			continue
		}
		if rec.fresh {
			win.latencies = append(win.latencies, rec.latency)
			win.cells += w.cellsOf(rec.spec)
		} else {
			win.resubmits = append(win.resubmits, rec.latency)
		}
	}
	win.pending = recs
	return win, nil
}

// cellsOf is the branch-cells a spec simulates.
func (w *daemonMix) cellsOf(s api.SweepSpec) uint64 {
	values := uint64((s.To-s.From)/s.Step + 1)
	var branches uint64
	for _, tf := range w.tfs {
		if ok, _ := filepath.Match(s.Traces, tf.path); ok {
			branches += tf.branches
		}
	}
	return values * branches
}

// submit runs one job from submission to fetched result and records it.
// It reports whether the job was a fresh one that finished.
func (c *client) submit(op int, spec api.SweepSpec, fresh bool) bool {
	kind := "job"
	if !fresh {
		kind = "resubmit"
	}
	t := c.t
	root := t.begin(op, -1, kind, 1)
	start := time.Now()
	rec := jobRecord{spec: spec, fresh: fresh}
	rec.body, rec.err = c.run(op, root, spec, fresh)
	rec.latency = time.Since(start).Seconds()
	t.end(root)
	c.recs = append(c.recs, rec)
	if rec.err == nil && fresh {
		c.done = append(c.done, spec)
	}
	return rec.err == nil && fresh
}

func (c *client) run(op, root int, spec api.SweepSpec, fresh bool) ([]byte, error) {
	t := c.t
	body, err := json.Marshal(api.SubmitRequest{APIVersion: api.Version, Spec: spec})
	if err != nil {
		return nil, err
	}
	sid := t.begin(op, root, "http.submit", 1)
	req, err := http.NewRequest(http.MethodPost, c.base+api.PathPrefix+"/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	tagRequest(req, t, op, sid)
	var sub api.SubmitResponse
	status, err := c.do(req, &sub)
	t.end(sid)
	submitted := time.Now()
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	switch {
	case fresh && status != http.StatusAccepted:
		return nil, fmt.Errorf("submit of a new spec: status %d, cached %v", status, sub.Cached)
	case !fresh && (status != http.StatusOK || !sub.Cached):
		return nil, fmt.Errorf("resubmit of a finished spec: status %d, cached %v", status, sub.Cached)
	}
	if fresh {
		job, seen, err := c.waitDone(sub.ID)
		if err != nil {
			return nil, err
		}
		if job.State != api.StateDone || job.ExitCode != sweep.ExitOK {
			return nil, fmt.Errorf("job %s ended %s, exit %d: %s", job.ID, job.State, job.ExitCode, job.Error)
		}
		if t != nil {
			created, err1 := time.Parse(time.RFC3339Nano, job.Created)
			started, err2 := time.Parse(time.RFC3339Nano, job.Started)
			finished, err3 := time.Parse(time.RFC3339Nano, job.Finished)
			if err := errors.Join(err1, err2, err3); err != nil {
				return nil, fmt.Errorf("job %s timestamps: %w", job.ID, err)
			}
			// The job may start before the submit response arrives; that
			// overlap stays with the submit call.
			q0, q1 := later(created, submitted), later(started, submitted)
			r1 := later(finished, submitted)
			t.interval(op, root, "daemon.queue_wait", 1, q0, q1)
			t.interval(op, root, "daemon.job_run", 1, q1, r1)
			t.interval(op, root, "daemon.notify", 1, r1, later(seen, r1))
		}
	}
	fid := t.begin(op, root, "http.result", 1)
	req, err = http.NewRequest(http.MethodGet, c.base+api.PathPrefix+"/jobs/"+sub.ID+"/result", nil)
	if err != nil {
		return nil, err
	}
	tagRequest(req, t, op, fid)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t.end(fid)
	if err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result: status %d: %s", resp.StatusCode, out)
	}
	return out, nil
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// do sends req and decodes a JSON response into v.
func (c *client) do(req *http.Request, v any) (int, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	return resp.StatusCode, json.Unmarshal(data, v)
}

// waitDone follows a job's server-sent events until the final "done"
// frame and returns the job body it carries and when it arrived.
func (c *client) waitDone(id string) (api.Job, time.Time, error) {
	resp, err := c.hc.Get(c.base + api.PathPrefix + "/jobs/" + id + "/events")
	if err != nil {
		return api.Job{}, time.Time{}, fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return api.Job{}, time.Time{}, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == api.EventDone:
			seen := time.Now()
			var job api.Job
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &job); err != nil {
				return api.Job{}, seen, fmt.Errorf("events: %w", err)
			}
			return job, seen, nil
		}
	}
	if err := sc.Err(); err != nil {
		return api.Job{}, time.Time{}, fmt.Errorf("events: %w", err)
	}
	return api.Job{}, time.Time{}, fmt.Errorf("events: stream of job %s ended without a done frame", id)
}

// Spans of the daemon's handlers are tied to the client's op and call by
// two request headers, set only in traced runs.
const (
	opHeader     = "Perfbench-Op"
	parentHeader = "Perfbench-Parent"
)

func tagRequest(req *http.Request, t *tracer, op, parent int) {
	if t != nil {
		req.Header.Set(opHeader, strconv.Itoa(op))
		req.Header.Set(parentHeader, strconv.Itoa(parent))
	}
}

// serverSpans wraps the daemon's handler. In traced runs it records the
// submit and result handlers as spans under the client's call.
type serverSpans struct {
	next http.Handler
	t    atomic.Pointer[tracer] // set before each window
}

func (s *serverSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := s.t.Load()
	if t == nil {
		s.next.ServeHTTP(w, r)
		return
	}
	op, err1 := strconv.Atoi(r.Header.Get(opHeader))
	parent, err2 := strconv.Atoi(r.Header.Get(parentHeader))
	if err1 != nil || err2 != nil {
		s.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	s.next.ServeHTTP(rec, r)
	name := "daemon.result_fetch"
	if r.Method == http.MethodPost {
		name = "daemon.submit_fresh"
		if rec.status == http.StatusOK {
			name = "daemon.submit_cached"
		}
	}
	t.interval(op, parent, name, 1, start, time.Now())
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

func (w *daemonMix) check(win *window, t *tracer, ops *opCounter) {
	first := map[string][]byte{} // result of each spec's fresh run
	for _, rec := range win.pending.([]jobRecord) {
		if rec.err != nil || !rec.fresh {
			continue
		}
		key := specKey(rec.spec)
		first[key] = rec.body
		local, err := w.replay(rec.spec, win, t, ops)
		if err != nil {
			win.fail("job %s: %v", key, err)
			continue
		}
		if !bytes.Equal(rec.body, local) {
			win.fail("job %s: daemon result differs from the local run:\n%s\nlocal:\n%s", key, rec.body, local)
		}
	}
	for _, rec := range win.pending.([]jobRecord) {
		if rec.err != nil || rec.fresh {
			continue
		}
		key := specKey(rec.spec)
		want, ok := first[key]
		if !ok {
			// The first run finished in an earlier window of this process.
			want, ok = w.local[key]
		}
		if !ok || !bytes.Equal(rec.body, want) {
			win.fail("resubmit %s: result differs from the first run's", key)
		}
	}
	win.pending = nil
}

func specKey(s api.SweepSpec) string {
	return fmt.Sprintf("%s|%s|%d..%d/%d", s.Traces, s.Predictor, s.From, s.To, s.Step)
}

// replay renders spec locally through sweep's Resolve, Run and Render with
// the daemon's options, checks every cell it simulates against the
// references, and returns the rendered JSON. A cell's local result depends
// only on its trace and predictor, so untraced replays reuse the results
// of cells an earlier replay ran and call Run only for specs with a cell
// not seen yet; the daemon's jobs draw their cells from a few hundred.
// Traced replays always run, journal like the daemon and record spans
// around each call: they are where the daemon-mix figures for decode,
// simulation, cache and journal come from, because the daemon's own
// per-job collector is exported only as periodic progress snapshots.
func (w *daemonMix) replay(s api.SweepSpec, win *window, t *tracer, ops *opCounter) ([]byte, error) {
	op := ops.id()
	root := t.begin(op, -1, "replay", 1)
	sid := t.begin(op, root, "sweep.resolve", 1)
	r, err := daemon.SweepSpec(s).Resolve()
	t.end(sid)
	if err != nil {
		return nil, err
	}
	sets := w.reuse(r)
	var ran []*sim.SetResult
	if sets == nil || t != nil {
		if ran, err = w.run(r, win, t, op, root); err != nil {
			return nil, err
		}
		sets = ran
	}
	rid := t.begin(op, root, "sweep.render", 1)
	var out bytes.Buffer
	exit := sweep.Render(&out, io.Discard, r.Specs, sets, len(r.Sources), true)
	t.end(rid)
	t.end(root)
	if exit != sweep.ExitOK {
		return nil, fmt.Errorf("local run exit code %d", exit)
	}
	for i, set := range ran {
		for _, res := range set.Results {
			if res == nil {
				return nil, fmt.Errorf("%s: missing result", r.Specs[i])
			}
			want, err := w.expect(res.Metadata.Trace, r.Specs[i])
			if err != nil {
				return nil, err
			}
			if err := checkCell(cellOf(res), want); err != nil {
				return nil, fmt.Errorf("%s: %w", r.Specs[i], err)
			}
			w.results[res.Metadata.Trace+"\x00"+r.Specs[i]] = res
		}
	}
	w.local[specKey(s)] = out.Bytes()
	return out.Bytes(), nil
}

// reuse assembles a resolved spec's results from cells already run and
// checked, or returns nil if one is missing.
func (w *daemonMix) reuse(r *sweep.Resolved) []*sim.SetResult {
	sets := make([]*sim.SetResult, len(r.Specs))
	for i, pred := range r.Specs {
		sets[i] = &sim.SetResult{Results: make([]*sim.Result, len(r.Sources))}
		for j, src := range r.Sources {
			res, ok := w.results[src.Name+"\x00"+pred]
			if !ok {
				return nil
			}
			sets[i].Results[j] = res
		}
	}
	return sets
}

// run is the local Run of a replay. Traced, it digests, journals and
// collects like the daemon's job runner, through traced trace sources.
func (w *daemonMix) run(r *sweep.Resolved, win *window, t *tracer, op, root int) ([]*sim.SetResult, error) {
	opts := sweep.RunOptions{Jobs: 0, CacheBytes: sim.DefaultCacheBytes, Policy: sim.Policy{Mode: sim.FailFast, Backoff: 100 * time.Millisecond}}
	width := min(runtime.GOMAXPROCS(0), len(r.Sources)*len(r.Specs))
	runID := -1
	if t != nil {
		did := t.begin(op, root, "sweep.digest", 1)
		r.AttachDigests()
		t.end(did)
		dir, err := os.MkdirTemp(w.dir, "replay-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		jnl, err := journal.Open(dir)
		if err != nil {
			return nil, err
		}
		defer jnl.Close()
		opts.Journal, opts.CheckpointEvery = jnl, cliflags.DefaultCheckpointEvery
		opts.Metrics = obs.New()
		runID = t.begin(op, root, "sweep.run", 1)
		paths := make([]string, len(r.Sources))
		for i, src := range r.Sources {
			paths[i] = src.Name
		}
		srcs := sources(paths, t, op, runID, width, nil)
		for i := range srcs {
			srcs[i].Digest = r.Sources[i].Digest
		}
		r.Sources = srcs
	}
	sets, err := r.Run(opts)
	t.end(runID)
	if err != nil {
		return nil, err
	}
	recordCollector(win, t, op, runID, width, opts.Metrics, nil)
	return sets, nil
}

// expect returns the reference of one cell, computing it on first use.
func (w *daemonMix) expect(path, pred string) (expected, error) {
	key := path + "\x00" + pred
	if want, ok := w.want[key]; ok {
		return want, nil
	}
	evs, ok := w.evs[path]
	if !ok {
		var tf *traceFile
		for i := range w.tfs {
			if w.tfs[i].path == path {
				tf = &w.tfs[i]
			}
		}
		if tf == nil {
			return expected{}, fmt.Errorf("unexpected trace %s", path)
		}
		var err error
		if evs, err = events(tf.spec); err != nil {
			return expected{}, err
		}
		w.evs[path] = evs
	}
	want, err := reference(w.tr[path], pred, func() (bp.Reader, error) { return &sliceReader{evs: evs}, nil })
	if err != nil {
		return expected{}, err
	}
	w.want[key] = want
	return want, nil
}

func (w *daemonMix) kernelRate(budget time.Duration) (float64, error) {
	return kernelRate(w.tfs, []string{"gshare:h=8,t=14"}, budget)
}

// startSeconds is the median time daemon.New, the listener and Start took
// over the set-up rounds.
func (w *daemonMix) startSeconds() float64 { return median(w.starts) }
