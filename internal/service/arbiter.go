// Fair-share arbitration. The worker pull is the natural control point of
// the paper's worker-centric model, so inter-job arbitration happens
// exactly there: instead of scanning resident jobs in submission order,
// the dispatch path (dispatch.go) offers the worker to runnable jobs in
// order of normalized dispatch consumption.
//
// The discipline is weighted deficit-round-robin in its start-time
// fair-queuing form: every job carries a virtual finish tag ("fair") that
// advances by fairScale/weight per dispatch, and ordering by (fair, seq)
// picks the most underserved job in O(log jobs). A global virtual time
// floor — the tag of the most recent dispatch — caps how much credit an
// idle or undispatchable job can bank, so a job that could not use its
// turns for a while resumes at the current share rather than monopolizing
// the pool to "catch up" (the standard SFQ treatment of idle flows). Jobs
// submitted without a tenant or weight join the anonymous default tenant
// at weight 1; because dispatch always offers to the minimum
// tag first and every weight is at least 1, no runnable job can starve.
//
// Tenants additionally carry a concurrency quota (maxInFlight), enforced
// at lease grant: a tenant at its quota is skipped (counted as a
// throttle) until a report or lease expiry returns capacity. The check and
// the grant run in one hold of the service lock, so concurrent pulls
// cannot overshoot the cap. Quotas are liveness-side only — they never
// affect recovery replay, which re-applies recorded dispatches rather than
// re-running the arbiter.
//
// Determinism: (fair, seq) is a total order, so the arbiter's choice is a
// pure function of the tags, and the tags are reconstructed exactly on
// recovery (snapshots persist each job's tag and the virtual time; journal
// tail records re-apply charges in log order — see recovery.go). A
// recovered service therefore makes the identical dispatch sequence an
// uninterrupted one would have made. All arbiter state is guarded by the
// service lock (Service.mu).
package service

import "gridsched/internal/metrics"

// fairScale is the virtual-time charge of one dispatch at weight 1; a
// weight-w dispatch charges fairScale/w. Integer arithmetic keeps recovery
// replay bit-exact. maxWeight caps weights so a charge is never rounded
// to zero.
const (
	fairScale = 1 << 20
	maxWeight = fairScale
)

// shareWindowSize is how many recent dispatches the achieved-share gauges
// are computed over.
const shareWindowSize = 1024

// tenantState is the arbiter's record of one tenant, created on first
// reference. Retention follows job retention: a tenant stays resident (in
// memory, in /v1/tenants and /metrics, and — quota and dispatch totals —
// in snapshots) while any of its job records do or a quota override is
// set, and is pruned when the last anchor goes away (see arbiter.prune) —
// so churning tenant names cannot grow the daemon without bound.
type tenantState struct {
	name     string
	weight   int64 // Σ running jobs' weights
	running  int   // running jobs
	inFlight int   // leased assignments
	// records counts resident job records (running or completed-but-
	// retained) — the O(1) replacement for scanning the job table when
	// deciding whether the tenant can be pruned.
	records int
	// quota overrides the server-wide default cap when > 0; 0 defers to
	// Config.TenantMaxInFlight. Set via PUT /v1/tenants/{tenant} and
	// journaled.
	quota      int
	dispatches int64 // task dispatches, exact across restarts (journaled)
	throttles  int64 // quota skips, process-local
}

// arbiter is the fair-share bookkeeping; every field is guarded by the
// service lock.
type arbiter struct {
	// heap is a min-heap of runnable jobs ordered by (fair, seq): the
	// root is the most underserved job. heapIdx on the job tracks its
	// position; -1 means not in the heap. Jobs stay in the heap for their
	// whole running life — dispatch copies and re-heaps it rather than
	// popping (dispatch.go).
	heap []*job
	// vtime is the virtual time floor: the pre-charge tag of the most
	// recent dispatch. New jobs join at vtime, and charges start from
	// max(job tag, vtime).
	vtime uint64
	// tenants indexes tenantState by name ("" = default tenant).
	tenants map[string]*tenantState
	// window is the sliding dispatch window behind the achieved-share
	// gauges.
	window *metrics.ShareWindow
}

func newArbiter() arbiter {
	return arbiter{
		tenants: make(map[string]*tenantState),
		window:  metrics.NewShareWindow(shareWindowSize),
	}
}

// runnableWeight is the summed weight of all running jobs — the
// denominator of every tenant's share target.
func (a *arbiter) runnableWeight() int64 {
	total := int64(0)
	for _, t := range a.tenants {
		total += t.weight
	}
	return total
}

// prune drops a tenant's state when nothing keeps it relevant: no quota
// override, no live leases, no running jobs, and no resident job records
// (running or completed-but-retained; counted, not scanned). Called at
// every event that can strip a tenant of its last anchor — job-record
// deletion, quota-override revert, lease end, and the post-recovery sweep
// — so churning tenant names cannot grow the daemon, its snapshots, or
// its metrics without bound.
func (a *arbiter) prune(name string) {
	t := a.tenants[name]
	if t == nil || t.quota != 0 || t.running != 0 || t.inFlight != 0 || t.records != 0 {
		return
	}
	delete(a.tenants, name)
}

// tenant returns the state for name, creating it on first reference.
func (a *arbiter) tenant(name string) *tenantState {
	t := a.tenants[name]
	if t == nil {
		t = &tenantState{name: name}
		a.tenants[name] = t
	}
	return t
}

// less is the heap order: most underserved first, submission order on ties.
func (a *arbiter) less(i, j int) bool {
	if a.heap[i].fair != a.heap[j].fair {
		return a.heap[i].fair < a.heap[j].fair
	}
	return a.heap[i].seq < a.heap[j].seq
}

func (a *arbiter) swap(i, j int) {
	a.heap[i], a.heap[j] = a.heap[j], a.heap[i]
	a.heap[i].heapIdx = i
	a.heap[j].heapIdx = j
}

func (a *arbiter) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !a.less(i, parent) {
			return
		}
		a.swap(i, parent)
		i = parent
	}
}

func (a *arbiter) down(i int) {
	n := len(a.heap)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && a.less(l, min) {
			min = l
		}
		if r < n && a.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		a.swap(i, min)
		i = min
	}
}

// push adds a runnable job to the heap. The job's fair tag and seq must be
// set; a job already in the heap is left alone.
func (a *arbiter) push(j *job) {
	if j.heapIdx >= 0 {
		return
	}
	j.heapIdx = len(a.heap)
	a.heap = append(a.heap, j)
	a.up(j.heapIdx)
}

// remove takes a job out of the heap wherever it sits (job completion).
// No-op when the job is not in the heap.
func (a *arbiter) remove(j *job) {
	i := j.heapIdx
	if i < 0 {
		return
	}
	last := len(a.heap) - 1
	a.swap(i, last)
	a.heap = a.heap[:last]
	j.heapIdx = -1
	if i < last {
		a.down(i)
		a.up(i)
	}
}

// charge advances a job's fair tag for one dispatch, moves the virtual
// time floor, and re-sifts the job. Recovery runs it too, when journal
// tail dispatch records are re-applied, which is what makes the tags — and
// therefore the post-recovery dispatch order — exact.
func (a *arbiter) charge(j *job) {
	start := j.fair
	if start < a.vtime {
		start = a.vtime
	}
	j.fair = start + fairScale/uint64(j.weight)
	a.vtime = start
	if j.heapIdx >= 0 {
		a.down(j.heapIdx)
	}
}

// admit registers a running job with tag fair — the current virtual time
// for a new submission, the checkpointed tag for a restored job: tenant
// weight bumped, heap entry created.
func (a *arbiter) admit(j *job, fair uint64) {
	j.fair = fair
	t := a.tenant(j.tenant)
	t.weight += int64(j.weight)
	t.running++
	a.push(j)
}

// retire unregisters a job that stopped running (completion).
func (a *arbiter) retire(j *job) {
	a.remove(j)
	t := a.tenant(j.tenant)
	t.weight -= int64(j.weight)
	t.running--
}

// quotaFor resolves a tenant's effective in-flight cap: per-tenant
// override first, server default otherwise; 0 is unlimited.
func (a *arbiter) quotaFor(t *tenantState, serverDefault int) int {
	if t.quota > 0 {
		return t.quota
	}
	return serverDefault
}

// normalizeWeight resolves a submitted weight: 0 (none given) is weight 1.
// Callers validated 0 <= w <= maxWeight.
func normalizeWeight(w int) int {
	return min(max(w, 1), maxWeight)
}
