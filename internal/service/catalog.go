package service

import (
	"sort"
	"time"

	"gridsched/internal/service/api"
	"gridsched/internal/workload"
)

// catalog is the follower's read-only projection of cluster state, folded
// from exactly the inputs recovery replays: the snapshot plus journal
// records. It tracks what status endpoints report — job counters, tenant
// quotas and dispatch totals — without schedulers, stores, or leases
// (liveness state that promotion rebuilds via the real recovery path).
//
// The counter fold mirrors replayEvent without an assignment table: a
// report or expiry for a task that already completed, or arriving after
// its job completed, can only be an obsolete replica and counts as
// cancelled — precisely when replayEvent's open-execution bookkeeping
// would have marked it cancelled, since OnTaskComplete victims are
// same-task replicas and job completion sweeps everything still open.
// The one field the records cannot reproduce is Transfers (it depends on
// site-store contents); the catalog reports it only for jobs the
// snapshot already summarized.
type catalog struct {
	defaultWeight int
	defaultQuota  int

	jobs    map[string]*catJob
	tenants map[string]*catTenant
}

// catJob is one job's folded summary.
type catJob struct {
	id         string
	name       string
	algorithm  string
	state      string
	tenant     string
	weight     int
	tasks      int
	submitMs   int64
	finishMs   int64
	requires   []string
	deadlineMs int64
	dispatched int
	completed  int
	failed     int
	cancelled  int
	expired    int
	speculated int
	transfers  int64

	// done holds the distinct tasks that completed successfully; the job
	// completes when every task is in it. Nil once the job completes.
	done map[workload.TaskID]struct{}
}

// catTenant is one tenant's folded durable state.
type catTenant struct {
	quota      int // in-flight override; 0 means the server default
	dispatches int64
}

func newCatalog(defaultWeight, defaultQuota int) *catalog {
	return &catalog{
		defaultWeight: defaultWeight,
		defaultQuota:  defaultQuota,
		jobs:          make(map[string]*catJob),
		tenants:       make(map[string]*catTenant),
	}
}

func (c *catalog) tenant(name string) *catTenant {
	t := c.tenants[name]
	if t == nil {
		t = &catTenant{}
		c.tenants[name] = t
	}
	return t
}

// loadSnapshot folds a snapshot in. Tenant dispatch totals are cumulative
// in the snapshot, so the per-job ledger folds below must not re-count
// them — only journal records applied after the snapshot do.
func (c *catalog) loadSnapshot(snap *snapshot) {
	for i := range snap.Tenants {
		st := &snap.Tenants[i]
		t := c.tenant(st.Name)
		t.quota, t.dispatches = st.Quota, st.Dispatches
	}
	for i := range snap.Jobs {
		sj := &snap.Jobs[i]
		j := &catJob{
			id:         sj.ID,
			name:       sj.Name,
			algorithm:  sj.Algorithm,
			state:      sj.State,
			tenant:     sj.Tenant,
			weight:     normalizeWeight(sj.Weight, c.defaultWeight),
			tasks:      sj.Tasks,
			submitMs:   sj.Submitted,
			finishMs:   sj.Finished,
			requires:   sj.Requires,
			deadlineMs: sj.Deadline,
		}
		if sj.State == api.JobCompleted {
			j.dispatched, j.completed, j.failed = sj.Dispatched, sj.Completed, sj.Failed
			j.cancelled, j.expired, j.transfers = sj.Cancelled, sj.Expired, sj.Transfers
			j.speculated = sj.Speculated
		} else {
			j.done = make(map[workload.TaskID]struct{})
			for i := 0; i < sj.Ledger.len(); i++ {
				e := sj.Ledger.at(i)
				c.foldEvent(j, e.Op, e.Task, e.Ts)
			}
		}
		c.jobs[sj.ID] = j
	}
}

// applyRecord folds one journal record — the follower's live path and the
// restart path over the local log tail.
func (c *catalog) applyRecord(rec *record) {
	switch rec.Op {
	case opSubmit:
		if rec.Workload == nil {
			return // recovery would reject this; the catalog just skips it
		}
		j := &catJob{
			id:         rec.Job,
			name:       rec.Name,
			algorithm:  rec.Algorithm,
			state:      api.JobRunning,
			tenant:     rec.Tenant,
			weight:     normalizeWeight(rec.Weight, c.defaultWeight),
			tasks:      len(rec.Workload.Tasks),
			submitMs:   rec.Ts,
			requires:   rec.Requires,
			deadlineMs: rec.Deadline,
			done:       make(map[workload.TaskID]struct{}),
		}
		if j.tasks == 0 {
			// Empty workloads complete at submission, as on the leader.
			j.state, j.finishMs, j.done = api.JobCompleted, rec.Ts, nil
		}
		c.jobs[rec.Job] = j
	case opQuota:
		c.tenant(rec.Tenant).quota = rec.Quota
	case opDelete:
		delete(c.jobs, rec.Job)
	case opDispatch:
		j := c.jobs[rec.Job]
		if j == nil {
			return
		}
		c.tenant(j.tenant).dispatches++
		op := uint8(ledgerDispatch)
		if rec.Spec {
			op = ledgerSpecDispatch
		}
		c.foldEvent(j, op, rec.Task, rec.Ts)
	case opReport:
		op := ledgerFailure
		if rec.Outcome == api.OutcomeSuccess {
			op = ledgerSuccess
		}
		if j := c.jobs[rec.Job]; j != nil {
			c.foldEvent(j, op, rec.Task, rec.Ts)
		}
	case opExpire:
		if j := c.jobs[rec.Job]; j != nil {
			c.foldEvent(j, ledgerExpire, rec.Task, rec.Ts)
		}
	}
}

// foldEvent applies one dispatch/report/expiry to a job's counters.
// Tenant dispatch totals are the caller's concern: journal records add to
// them, a snapshot job's ledger does not (see loadSnapshot).
func (c *catalog) foldEvent(j *catJob, op uint8, task workload.TaskID, tsMs int64) {
	if op == ledgerDispatch || op == ledgerSpecDispatch {
		if j.state == api.JobRunning {
			j.dispatched++
			if op == ledgerSpecDispatch {
				j.speculated++
			}
		}
		return
	}
	// Obsolete replica: its task already completed, or its whole job did.
	if j.state == api.JobCompleted {
		j.cancelled++
		return
	}
	if _, dup := j.done[task]; dup {
		j.cancelled++
		return
	}
	switch op {
	case ledgerSuccess:
		j.completed++
		j.done[task] = struct{}{}
		if len(j.done) == j.tasks {
			j.state, j.finishMs, j.done = api.JobCompleted, tsMs, nil
		}
	case ledgerFailure:
		j.failed++
	case ledgerExpire:
		j.expired++
	}
}

// status renders one job in the leader's JobStatus conventions
// (timestamps in Unix seconds; Remaining only meaningful while running).
func (j *catJob) status() api.JobStatus {
	remaining := 0
	if j.state == api.JobRunning {
		remaining = j.tasks - len(j.done)
	}
	st := api.JobStatus{
		ID:              j.id,
		Name:            j.name,
		Algorithm:       j.algorithm,
		State:           j.state,
		Tenant:          j.tenant,
		Weight:          j.weight,
		Tasks:           j.tasks,
		Remaining:       remaining,
		Dispatched:      j.dispatched,
		Completed:       j.completed,
		Failed:          j.failed,
		Cancelled:       j.cancelled,
		Expired:         j.expired,
		Speculated:      j.speculated,
		Transfers:       j.transfers,
		Requires:        j.requires,
		DeadlineMillis:  j.deadlineMs,
		SubmittedAtUnix: time.UnixMilli(j.submitMs).Unix(),
	}
	if j.finishMs != 0 {
		st.FinishedAtUnix = time.UnixMilli(j.finishMs).Unix()
	}
	return st
}

// jobStatuses renders every resident job in submission order.
func (c *catalog) jobStatuses() []api.JobStatus {
	sts := make([]api.JobStatus, 0, len(c.jobs))
	for _, j := range c.jobs {
		sts = append(sts, j.status())
	}
	sortJobStatuses(sts)
	return sts
}

// tenantStatuses renders the tenants' durable state. Weight, RunningJobs
// and ShareTarget come from the resident running jobs; liveness-only
// fields (InFlight, ShareAchieved, Throttles) are zero on a follower —
// leases and share windows live on the leader.
func (c *catalog) tenantStatuses() []api.TenantStatus {
	type agg struct {
		weight  int64
		running int
	}
	byTenant := make(map[string]*agg)
	total := int64(0)
	for _, j := range c.jobs {
		if j.state != api.JobRunning {
			continue
		}
		a := byTenant[j.tenant]
		if a == nil {
			a = &agg{}
			byTenant[j.tenant] = a
		}
		a.weight += int64(j.weight)
		a.running++
		total += int64(j.weight)
	}
	names := make(map[string]struct{}, len(c.tenants)+len(byTenant))
	for name, t := range c.tenants {
		if t.quota != 0 || t.dispatches != 0 {
			names[name] = struct{}{}
		}
	}
	for name := range byTenant {
		names[name] = struct{}{}
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	sts := make([]api.TenantStatus, 0, len(sorted))
	for _, name := range sorted {
		st := api.TenantStatus{Tenant: name, MaxInFlight: c.defaultQuota}
		if t := c.tenants[name]; t != nil {
			if t.quota > 0 {
				st.MaxInFlight = t.quota
			}
			st.Dispatches = t.dispatches
		}
		if a := byTenant[name]; a != nil {
			st.Weight, st.RunningJobs = a.weight, a.running
			if total > 0 {
				st.ShareTarget = float64(a.weight) / float64(total)
			}
		}
		sts = append(sts, st)
	}
	return sts
}
