// Context-aware scheduling: a Scheduler wrapper that consults observed
// worker context — capability tags and EWMAs of task duration and failure
// rate — before letting the wrapped strategy assign work. The wrapper sits
// strictly ABOVE the inner scheduler: when the context gate rejects a
// worker it returns Wait without touching the inner scheduler at all, so
// the inner strategy's state (including its RNG stream) advances exactly
// as if the worker had never asked. That property is what keeps recovery
// replay exact: the journal records only the assignments that happened,
// and ReplayAssign bypasses the gate entirely, so a recovered scheduler
// cannot diverge from the live one however the gate decided.
package core

import "gridsched/internal/workload"

// WorkerContext is the observed runtime context of one worker slot, as
// accumulated by the embedding engine (the gridschedd service folds it
// from report traffic; see internal/service).
type WorkerContext struct {
	// Tags are the capability tags the worker registered with.
	Tags []string
	// MeanTaskMillis is an EWMA of observed task durations in
	// milliseconds; 0 until the first completed task.
	MeanTaskMillis float64
	// FailureRate is an EWMA of the failure indicator in [0, 1].
	FailureRate float64
	// Samples counts completed-task duration observations.
	Samples int64
	// Events counts all outcome observations (successes and failures).
	Events int64
}

// ContextSource resolves a worker slot to its observed context. The second
// result is false when nothing has been observed for the slot yet — the
// gate must treat such workers as eligible (cold start never blocks).
type ContextSource interface {
	WorkerContext(at WorkerRef) (WorkerContext, bool)
}

// The failure gate: a worker whose observed failure-rate EWMA meets or
// exceeds maxFailureRate is rejected, once minEvents outcomes have been
// observed for it (below that floor, cold start, the gate stays open).
const (
	maxFailureRate = 0.5
	minEvents      = 4
)

// ContextAware is the wrapper; construct with NewContextAware.
type ContextAware struct {
	inner Scheduler
	src   ContextSource
}

// NewContextAware wraps inner with a context gate fed by src. A nil src
// disables the gate (the wrapper becomes a transparent proxy).
func NewContextAware(inner Scheduler, src ContextSource) *ContextAware {
	return &ContextAware{inner: inner, src: src}
}

func (c *ContextAware) Name() string { return "context:" + c.inner.Name() }

func (c *ContextAware) AttachSite(site int) { c.inner.AttachSite(site) }

func (c *ContextAware) NoteBatch(site int, batch, fetched, evicted []workload.FileID) {
	c.inner.NoteBatch(site, batch, fetched, evicted)
}

// admits is the context gate. It must be a pure function of the source's
// current observation for the slot: no scheduler state may change on a
// rejection.
func (c *ContextAware) admits(at WorkerRef) bool {
	if c.src == nil {
		return false // no source: gate disabled
	}
	ctx, ok := c.src.WorkerContext(at)
	if !ok {
		return true // never observed: cold start admits
	}
	if ctx.Events >= minEvents && ctx.FailureRate >= maxFailureRate {
		return false
	}
	return true
}

func (c *ContextAware) NextFor(at WorkerRef) (workload.Task, Status) {
	if c.src != nil && !c.admits(at) {
		// Rejected by context: the inner scheduler never sees the ask, so
		// its state (and RNG) is exactly as if the worker stayed silent.
		return workload.Task{}, Wait
	}
	return c.inner.NextFor(at)
}

func (c *ContextAware) OnTaskComplete(id workload.TaskID, at WorkerRef) []WorkerRef {
	return c.inner.OnTaskComplete(id, at)
}

func (c *ContextAware) OnExecutionFailed(id workload.TaskID, at WorkerRef) {
	c.inner.OnExecutionFailed(id, at)
}

func (c *ContextAware) Remaining() int { return c.inner.Remaining() }

// ReplayAssign bypasses the context gate: recovery re-applies recorded
// assignments, and the gate's verdict at record time is already baked into
// which records exist. The inner scheduler is replayed as it would be
// unwrapped.
func (c *ContextAware) ReplayAssign(id workload.TaskID, at WorkerRef) error {
	return ReplayAssign(c.inner, id, at)
}
