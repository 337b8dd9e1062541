package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gridsched/internal/core"
	"gridsched/internal/workload"
)

// Span names, one per layer boundary the benchmark can see from outside the
// program. A span records name, start, end, the span that caused it and the
// request it belongs to (choosing-metrics guide §4); they are kept in
// memory and written out when the workload ends.
const (
	spanClient  = "client.call"
	spanRouter  = "router.handle"
	spanIngress = "ingress.handle"
	spanService = "service.handle"
	spanCore    = "core" // Op says which scheduler method
)

// Operation labels shared by client and service spans.
const (
	opSubmit   = "submit"
	opPull     = "pull"
	opReport   = "report"
	opReports  = "reports"
	opStream   = "stream" // the long-lived lease stream request
	opFrame    = "frame"  // one LeaseStream.Next on the client
	opRegister = "register"
	opOther    = "other"

	opNextFor   = "nextfor"
	opNoteBatch = "notebatch"
	opComplete  = "complete"
	opFailed    = "failed"
	opBuild     = "build"
	opReplay    = "replay"
)

type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"`
	// Worker is the benchmark's worker index for client and HTTP spans, -1
	// when the request belongs to no worker. Core spans carry the
	// scheduler's (Site, Slot) instead.
	Worker int   `json:"worker"`
	Site   int   `json:"site,omitempty"`
	Slot   int   `json:"slot,omitempty"`
	Start  int64 `json:"start"` // ns since the recorder's epoch
	End    int64 `json:"end"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder collects spans. A nil *recorder is "tracing off": every method
// is a no-op, so the workload code is identical in both runs and the
// difference between them is the tracing overhead.
type recorder struct {
	epoch  time.Time
	nextID atomic.Uint64
	// paused suspends recording without removing the wrappers, so one
	// running deployment can alternate traced and untraced slices and the
	// two can be compared like for like.
	paused atomic.Bool

	mu    sync.Mutex
	spans []span

	// Scheduler calls are far too many to keep one span each (millions in
	// the sweep), so the decorator aggregates them per operation and only
	// the first maxCoreSpans become spans in the trace file.
	core      map[string]*opStats
	coreSpans atomic.Int64

	// NoteBatch carries what the site stores did; the decorator counts it
	// here so hit ratio and evictions are measured where the work happens.
	filesRequested atomic.Int64
	filesFetched   atomic.Int64
	filesEvicted   atomic.Int64
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now(), core: make(map[string]*opStats)}
	for _, op := range []string{opNextFor, opNoteBatch, opComplete, opFailed, opBuild, opReplay} {
		r.core[op] = &opStats{}
	}
	return r
}

// maxCoreSpans bounds the scheduler-call spans kept individually.
const maxCoreSpans = 20000

// opStats aggregates the calls of one scheduler operation: count and total
// time exactly, durations as a decimated sample for percentiles.
type opStats struct {
	count  atomic.Int64
	sumNs  atomic.Int64
	stride atomic.Int64 // keep every stride-th call; 0 means 1

	mu      sync.Mutex
	samples []int64
}

// maxOpSamples bounds an opStats sample; when it fills, every other sample
// is dropped and the stride doubles, so the sample stays evenly spread and
// the lock is taken ever more rarely.
const maxOpSamples = 1 << 14

func (o *opStats) observe(ns int64) {
	n := o.count.Add(1)
	o.sumNs.Add(ns)
	if n%max(o.stride.Load(), 1) != 0 {
		return
	}
	o.mu.Lock()
	if len(o.samples) == maxOpSamples {
		kept := o.samples[:0]
		for i := 1; i < len(o.samples); i += 2 {
			kept = append(kept, o.samples[i])
		}
		o.samples = kept
		o.stride.Store(max(o.stride.Load(), 1) * 2)
	}
	o.samples = append(o.samples, ns)
	o.mu.Unlock()
}

// us returns the sampled durations in microseconds.
func (o *opStats) us() []float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]float64, len(o.samples))
	for i, ns := range o.samples {
		out[i] = float64(ns) / 1e3
	}
	return out
}

// coreNs is the total time spent in the given scheduler operations.
func (r *recorder) coreNs(ops ...string) int64 {
	var t int64
	for _, op := range ops {
		t += r.core[op].sumNs.Load()
	}
	return t
}

// reset forgets everything recorded so far; the traced run calls it when
// the timed phase starts so that set-up and warm-up are not attributed.
func (r *recorder) reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
	r.coreSpans.Store(0)
	for _, o := range r.core {
		o.mu.Lock()
		o.count.Store(0)
		o.sumNs.Store(0)
		o.stride.Store(0)
		o.samples = nil
		o.mu.Unlock()
	}
	r.filesRequested.Store(0)
	r.filesFetched.Store(0)
	r.filesEvicted.Store(0)
}

// coreCall records one scheduler call that started at start.
func (r *recorder) coreCall(op string, at core.WorkerRef, start int64) {
	end := r.now()
	r.core[op].observe(end - start)
	if r.coreSpans.Load() < maxCoreSpans {
		r.coreSpans.Add(1)
		r.add(span{ID: r.newID(), Name: spanCore, Op: op, Worker: -1,
			Site: at.Site, Slot: at.Worker, Start: start, End: end})
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// traceSlice is how long the traced run records before it pauses for as
// long again.
const traceSlice = 500 * time.Millisecond

// tracedAt reports whether instant t of a timed phase that began at from
// falls in a recording slice: the even ones.
func tracedAt(from, t time.Time) bool { return int(t.Sub(from)/traceSlice)%2 == 0 }

// alternate makes r record during the even traceSlice-long slices counted
// from from and pause during the odd ones, until the returned stop is
// called. On a nil recorder it does nothing.
func (r *recorder) alternate(from time.Time) (stop func()) {
	if r == nil {
		return func() {}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			r.paused.Store(!tracedAt(from, time.Now()))
			next := from.Add((time.Since(from)/traceSlice + 1) * traceSlice)
			select {
			case <-quit:
				return
			case <-time.After(time.Until(next)):
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		r.paused.Store(true)
	}
}

// on reports whether r is recording.
func (r *recorder) on() bool { return r != nil && !r.paused.Load() }

func (r *recorder) newID() uint64 { return r.nextID.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far, ordered by start.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// writeFile writes the spans, and the per-operation totals of the scheduler
// calls that were aggregated rather than kept, as one JSON document.
func (r *recorder) writeFile(path string) error {
	type coreTotal struct {
		Count int64 `json:"count"`
		SumNs int64 `json:"sumNs"`
	}
	totals := make(map[string]coreTotal, len(r.core))
	for op, o := range r.core {
		totals[op] = coreTotal{o.count.Load(), o.sumNs.Load()}
	}
	data, err := json.Marshal(map[string]any{"spans": r.snapshot(), "coreTotals": totals})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanRef is what travels with a request: through the context on the client
// side, through the X-Bench-Span header across a hop.
type spanRef struct {
	req, span uint64
	worker    int
}

type spanRefKey struct{}

const spanHeader = "X-Bench-Span"

func (s spanRef) header() string {
	return strconv.FormatUint(s.req, 10) + "." + strconv.FormatUint(s.span, 10) + "." + strconv.Itoa(s.worker)
}

func parseSpanRef(h string) (spanRef, bool) {
	parts := strings.Split(h, ".")
	if len(parts) != 3 {
		return spanRef{}, false
	}
	req, err1 := strconv.ParseUint(parts[0], 10, 64)
	sp, err2 := strconv.ParseUint(parts[1], 10, 64)
	w, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil {
		return spanRef{}, false
	}
	return spanRef{req: req, span: sp, worker: w}, true
}

// clientSpan opens a client.call span and returns a context that carries it
// to traceTransport. done must be called when the call returns.
func (r *recorder) clientSpan(ctx context.Context, op string, worker int) (context.Context, func()) {
	if !r.on() {
		return ctx, func() {}
	}
	id := r.newID()
	ref := spanRef{req: id, span: id, worker: worker}
	start := r.now()
	return context.WithValue(ctx, spanRefKey{}, ref), func() {
		r.add(span{ID: id, Req: id, Name: spanClient, Op: op, Worker: worker, Start: start, End: r.now()})
	}
}

// traceTransport stamps the caller's span onto outgoing requests so the
// first handler wrapper on the other side can name its parent.
type traceTransport struct{ base http.RoundTripper }

func (t traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if ref, ok := req.Context().Value(spanRefKey{}).(spanRef); ok {
		req = req.Clone(req.Context()) // a RoundTripper must not modify the caller's request
		req.Header.Set(spanHeader, ref.header())
	}
	return t.base.RoundTrip(req)
}

// traceHandler wraps one layer's http.Handler in a span named name. The
// header is rewritten to this span before next runs, so the next wrapper
// down the chain — possibly across the router's proxy hop — becomes its
// child.
func (r *recorder) traceHandler(name string, next http.Handler) http.Handler {
	if r == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, ok := parseSpanRef(req.Header.Get(spanHeader))
		if !ok {
			next.ServeHTTP(w, req) // probes and scrapes are not part of the workload
			return
		}
		id := r.newID()
		req.Header.Set(spanHeader, spanRef{req: parent.req, span: id, worker: parent.worker}.header())
		start := r.now()
		next.ServeHTTP(w, req)
		r.add(span{ID: id, Parent: parent.span, Req: parent.req, Name: name, Op: routeOp(req),
			Worker: parent.worker, Start: start, End: r.now()})
	})
}

// routeOp classifies a request by the gridschedd route it hits.
func routeOp(req *http.Request) string {
	p := req.URL.Path
	switch {
	case p == "/v1/jobs" && req.Method == http.MethodPost:
		return opSubmit
	case p == "/v1/workers" && req.Method == http.MethodPost:
		return opRegister
	case strings.HasSuffix(p, "/pull"):
		return opPull
	case strings.HasSuffix(p, "/reports"):
		return opReports
	case strings.HasSuffix(p, "/report"):
		return opReport
	case strings.HasSuffix(p, "/stream"):
		return opStream
	}
	return opOther
}

// tracedScheduler is the span-recording core.Scheduler decorator the traced
// run installs through service.Config.NewScheduler (and hands to grid.Run
// in the sweep).
type tracedScheduler struct {
	inner core.Scheduler
	rec   *recorder
}

// tracedReplayer additionally forwards ReplayAssign, so wrapping does not
// change which recovery path the service takes for the scheduler.
type tracedReplayer struct {
	*tracedScheduler
	replayer core.Replayer
}

func (r *recorder) wrapScheduler(s core.Scheduler) core.Scheduler {
	if r == nil {
		return s
	}
	ts := &tracedScheduler{inner: s, rec: r}
	if rp, ok := s.(core.Replayer); ok {
		return &tracedReplayer{tracedScheduler: ts, replayer: rp}
	}
	return ts
}

func (t *tracedScheduler) record(op string, at core.WorkerRef, start int64) {
	t.rec.coreCall(op, at, start)
}

func (t *tracedScheduler) Name() string        { return t.inner.Name() }
func (t *tracedScheduler) AttachSite(site int) { t.inner.AttachSite(site) }
func (t *tracedScheduler) Remaining() int      { return t.inner.Remaining() }

func (t *tracedScheduler) NoteBatch(site int, batch, fetched, evicted []workload.FileID) {
	if !t.rec.on() {
		t.inner.NoteBatch(site, batch, fetched, evicted)
		return
	}
	t.rec.filesRequested.Add(int64(len(batch)))
	t.rec.filesFetched.Add(int64(len(fetched)))
	t.rec.filesEvicted.Add(int64(len(evicted)))
	start := t.rec.now()
	t.inner.NoteBatch(site, batch, fetched, evicted)
	t.record(opNoteBatch, core.WorkerRef{Site: site, Worker: -1}, start)
}

func (t *tracedScheduler) NextFor(at core.WorkerRef) (workload.Task, core.Status) {
	if !t.rec.on() {
		return t.inner.NextFor(at)
	}
	start := t.rec.now()
	task, st := t.inner.NextFor(at)
	t.record(opNextFor, at, start)
	return task, st
}

func (t *tracedScheduler) OnTaskComplete(id workload.TaskID, at core.WorkerRef) []core.WorkerRef {
	if !t.rec.on() {
		return t.inner.OnTaskComplete(id, at)
	}
	start := t.rec.now()
	cancel := t.inner.OnTaskComplete(id, at)
	t.record(opComplete, at, start)
	return cancel
}

func (t *tracedScheduler) OnExecutionFailed(id workload.TaskID, at core.WorkerRef) {
	if !t.rec.on() {
		t.inner.OnExecutionFailed(id, at)
		return
	}
	start := t.rec.now()
	t.inner.OnExecutionFailed(id, at)
	t.record(opFailed, at, start)
}

func (t *tracedReplayer) ReplayAssign(id workload.TaskID, at core.WorkerRef) error {
	if !t.rec.on() {
		return t.replayer.ReplayAssign(id, at)
	}
	start := t.rec.now()
	err := t.replayer.ReplayAssign(id, at)
	t.record(opReplay, at, start)
	return err
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its child spans cover. Children are clipped to the parent
// and overlapping children are counted once.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]*span)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	self := make(map[uint64]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}
