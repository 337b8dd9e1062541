package service_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"gridsched/internal/journal"
	"gridsched/internal/replicate"
	"gridsched/internal/service"
	"gridsched/internal/service/api"
	"gridsched/internal/service/client"
	"gridsched/internal/testkit"
)

// startFollower spins up a hot standby replicating the leader at
// leaderURL into its own temp data dir.
func startFollower(t *testing.T, leaderURL string) *service.Follower {
	t.Helper()
	return startFollowerIn(t, t.TempDir(), leaderURL)
}

// startFollowerIn is startFollower over a data dir the test can inspect.
func startFollowerIn(t *testing.T, dir, leaderURL string) *service.Follower {
	t.Helper()
	fl, err := service.NewFollower(durableConfig(dir), service.FollowerConfig{Leader: leaderURL})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.Close)
	return fl
}

// waitCaughtUp blocks until the follower's local LSN reaches the
// leader's.
func waitCaughtUp(t *testing.T, fl *service.Follower, s *service.Service) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for fl.LastLSN() < s.ReplicationLastLSN() {
		if err := fl.Halted(); err != nil {
			t.Fatalf("follower halted while catching up: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at lsn %d, leader at %d", fl.LastLSN(), s.ReplicationLastLSN())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// getJSON fetches one follower endpoint into out.
func getJSON(t *testing.T, h http.Handler, path string, out any) *http.Response {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	resp := rr.Result()
	if out != nil {
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	return resp
}

// normalizeForFollower blanks the live-only fields a read-only catalog
// cannot know: in-flight assignment state and the simulated transfer
// counters that live inside the scheduler.
func normalizeForFollower(sts []api.JobStatus) []api.JobStatus {
	out := make([]api.JobStatus, len(sts))
	for i, st := range sts {
		st.Transfers = 0
		out[i] = st
	}
	return out
}

func normalizeTenants(sts []api.TenantStatus) []api.TenantStatus {
	out := make([]api.TenantStatus, len(sts))
	for i, st := range sts {
		st.InFlight = 0
		st.ShareAchieved = 0
		st.Throttles = 0
		out[i] = st
	}
	return out
}

// assertFollowerMirrors waits for the standby to catch up and checks its
// /v1/jobs, /v1/tenants and /healthz against the leader's view, field by
// field (modulo the live-only fields the normalizers blank).
func assertFollowerMirrors(t *testing.T, fl *service.Follower, s *service.Service) {
	t.Helper()
	waitCaughtUp(t, fl, s)

	var gotJobs []api.JobStatus
	getJSON(t, fl.Handler(), "/v1/jobs", &gotJobs)
	wantJobs := normalizeForFollower(s.Jobs())
	gotJobs = normalizeForFollower(gotJobs)
	if len(gotJobs) != len(wantJobs) {
		t.Fatalf("follower sees %d jobs, leader %d", len(gotJobs), len(wantJobs))
	}
	for i := range wantJobs {
		if !reflect.DeepEqual(gotJobs[i], wantJobs[i]) {
			t.Errorf("job %d:\nfollower %+v\nleader   %+v", i, gotJobs[i], wantJobs[i])
		}
	}

	var gotTenants []api.TenantStatus
	getJSON(t, fl.Handler(), "/v1/tenants", &gotTenants)
	wantTenants := normalizeTenants(s.Tenants())
	gotTenants = normalizeTenants(gotTenants)
	if len(gotTenants) != len(wantTenants) {
		t.Fatalf("follower sees %d tenants, leader %d: %+v vs %+v",
			len(gotTenants), len(wantTenants), gotTenants, wantTenants)
	}
	for i := range wantTenants {
		if gotTenants[i] != wantTenants[i] {
			t.Errorf("tenant %d:\nfollower %+v\nleader   %+v", i, gotTenants[i], wantTenants[i])
		}
	}

	// "Jobs still running" is replicated state: the standby reports the
	// leader's figure (workers are liveness, and stay zero).
	var gotHealth api.Health
	getJSON(t, fl.Handler(), "/healthz", &gotHealth)
	want := s.Health()
	if gotHealth.Jobs != want.Jobs || gotHealth.OpenJobs != want.OpenJobs {
		t.Errorf("follower /healthz %+v, leader %+v", gotHealth, want)
	}
}

// TestFollowerMirrorsLeader drives workloads on a journaled leader with a
// standby attached and checks the standby converges to the leader's view.
//
// "mixed": two tenants, a quota override, a completed job, a half-done job.
//
// "differential": one seeded schedule through everything the job state
// machine does — grants to several slots, success and failure reports,
// lease expiry, worker deregistration, a speculative twin that wins and
// one that loses, a twin on a streaming worker's slot (several leases, and
// a replicating scheduler that would hand it the twin's own task), a job
// completing with a replica still in flight, a DELETE — cut at several points, before and after a forced snapshot. At
// every cut three derivations of the same state must agree: the leader
// (live apply), the standby (apply over shells), and a service recovered
// from a copy of the leader's data dir (apply under replay), worker EWMAs
// included.
func TestFollowerMirrorsLeader(t *testing.T) {
	t.Run("mixed", func(t *testing.T) {
		s, err := service.New(durableConfig(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		srv := httptest.NewServer(s.Handler())
		t.Cleanup(srv.Close)
		fl := startFollower(t, srv.URL)

		// Job 1 (tenant A): driven to completion.
		done, err := s.SubmitJob(api.SubmitJobRequest{Name: "astro", Algorithm: "rest", Workload: syntheticWorkload(12, 3), Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if got := pullSequence(t, s, -1); len(got) != 12 {
			t.Fatalf("drained %d tasks", len(got))
		}
		// Job 2 (tenant B): half-done, still running.
		if _, err := s.SubmitJob(api.SubmitJobRequest{
			Name: "bio", Algorithm: "combined.2", Workload: syntheticWorkload(20, 3), Seed: 11, Tenant: "tb",
		}); err != nil {
			t.Fatal(err)
		}
		pullSequence(t, s, 5)
		if _, err := s.SetTenantQuota("tb", 3); err != nil {
			t.Fatal(err)
		}

		assertFollowerMirrors(t, fl, s)
		if h := s.Health(); h.Jobs != 2 || h.OpenJobs != 1 {
			t.Fatalf("leader health %+v, want 2 jobs, 1 open", h)
		}

		// Single-job view agrees too.
		var one api.JobStatus
		getJSON(t, fl.Handler(), "/v1/jobs/"+done, &one)
		if one.State != api.JobCompleted || one.Completed != 12 {
			t.Fatalf("completed job on follower: %+v", one)
		}
	})
	t.Run("differential", testMirrorDifferential)
}

// mirror is the differential harness: a leader under a fake clock, its
// standby, and the three-way check.
type mirror struct {
	t   *testing.T
	clk *policyClock
	dir string
	url string // the leader's HTTP address
	s   *service.Service
	fl  *service.Follower
	rng *rand.Rand
}

// submit adds a job only workers tagged tag may run, so each phase of the
// schedule draws from the job it means to.
func (m *mirror) submit(tag, algo, tenant string, tasks int) string {
	m.t.Helper()
	id, err := m.s.SubmitJob(api.SubmitJobRequest{
		Name: tag, Algorithm: algo, Workload: syntheticWorkload(tasks, 2), Seed: 7,
		Tenant: tenant, Requires: []string{tag},
	})
	if err != nil {
		m.t.Fatal(err)
	}
	return id
}

func (m *mirror) register(site int, tag string) string {
	m.t.Helper()
	reg, err := m.s.RegisterWorker(site, []string{tag})
	if err != nil {
		m.t.Fatal(err)
	}
	return reg.WorkerID
}

func (m *mirror) mustPull(workerID string) *api.Assignment {
	m.t.Helper()
	a := pull(m.t, m.s, workerID)
	if a == nil {
		m.t.Fatalf("worker %s starved", workerID)
	}
	return a
}

// report ends a lease after ms of virtual time and returns the reply.
func (m *mirror) report(a *api.Assignment, workerID, outcome string, ms int64) *api.ReportResponse {
	m.t.Helper()
	m.clk.ms.Add(ms)
	rep, err := m.s.Report(a.ID, workerID, outcome)
	if err != nil || !rep.Accepted || rep.Stale {
		m.t.Fatalf("report %s on %s: %+v (err=%v)", outcome, a.ID, rep, err)
	}
	return rep
}

// stageTwin brings the tagged job to mid-speculation: slow holds a
// straggling primary, fast completed three tasks at 100ms each, and the
// sweep at +1000ms got fast a speculative twin of the straggler.
func (m *mirror) stageTwin(tag string) (slow, fast string, primary, twin *api.Assignment) {
	m.t.Helper()
	slow, fast = m.register(0, tag), m.register(1, tag)
	primary = m.mustPull(slow)
	for i := 0; i < 3; i++ {
		m.report(m.mustPull(fast), fast, api.OutcomeSuccess, 100)
	}
	m.clk.ms.Add(1000)
	m.s.SweepForTest()
	twin = m.mustPull(fast)
	if twin.Task.ID != primary.Task.ID {
		m.t.Fatalf("twin runs task %d, straggler holds task %d", twin.Task.ID, primary.Task.ID)
	}
	return slow, fast, primary, twin
}

// churn runs n seeded pull/report rounds over two workers of the tagged
// job: mostly successes, some failures, and some leases simply held.
func (m *mirror) churn(tag string, n int) {
	m.t.Helper()
	ws := []string{m.register(0, tag), m.register(1, tag), m.register(1, tag)}
	for i := 0; i < n; i++ {
		w := ws[m.rng.Intn(len(ws))]
		resp, err := m.s.Pull(nil, w, 0)
		if err != nil {
			continue // still holds a lease from an earlier round
		}
		if resp.Status != api.StatusAssigned {
			continue
		}
		switch p := m.rng.Float64(); {
		case p < 0.65:
			m.report(resp.Assignment, w, api.OutcomeSuccess, 20+m.rng.Int63n(60))
		case p < 0.85:
			m.report(resp.Assignment, w, api.OutcomeFailure, 5)
		}
	}
}

// leaseStream is a streaming worker's end of the differential harness: the
// one kind of worker that holds several leases on its slot at once.
type leaseStream struct {
	m       *mirror
	ls      *client.LeaseStream
	pending []api.Assignment
}

func (m *mirror) stream(workerID string, batch int) *leaseStream {
	m.t.Helper()
	ls, err := testkit.WireCodec(m.t, client.New(m.url, nil)).StreamLeases(context.Background(), workerID, batch)
	if err != nil {
		m.t.Fatal(err)
	}
	m.t.Cleanup(func() { ls.Close() })
	return &leaseStream{m: m, ls: ls}
}

// next returns the stream's next grant, in the order granted.
func (st *leaseStream) next() *api.Assignment {
	st.m.t.Helper()
	for len(st.pending) == 0 {
		lb, err := st.ls.Next()
		if err != nil {
			st.m.t.Fatalf("lease stream: %v", err)
		}
		st.pending = append(st.pending, lb.Assignments...)
	}
	a := st.pending[0]
	st.pending = st.pending[1:]
	return &a
}

// settle returns the grants that arrived by the time the stream's grant
// scan has run over everything the schedule did so far. A submission nobody
// can run changes the open-job count, and the first scan to see that says so
// in the frame it ends with.
func (st *leaseStream) settle() []api.Assignment {
	st.m.t.Helper()
	st.m.submit("beacon", "workqueue", "", 1)
	for want := st.m.s.Health().OpenJobs; ; {
		lb, err := st.ls.Next()
		if err != nil {
			st.m.t.Fatalf("lease stream: %v", err)
		}
		st.pending = append(st.pending, lb.Assignments...)
		if lb.OpenJobs == want {
			return st.pending
		}
	}
}

// allSlotsTelemetry registers a worker into every slot of s and returns
// the per-slot EWMAs (telemetry is only visible through a registration).
func allSlotsTelemetry(t *testing.T, s *service.Service) []api.WorkerStatus {
	t.Helper()
	var ids []string
	for site := 0; site < 2; site++ {
		for k := 0; k < 4; k++ {
			reg, err := s.RegisterWorker(site, nil)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, reg.WorkerID)
		}
	}
	ws := s.Workers()
	for i := range ws {
		ws[i].WorkerID, ws[i].ExpiresAtUnix = "", 0
	}
	for _, id := range ids {
		if err := s.Deregister(id); err != nil {
			t.Fatal(err)
		}
	}
	return ws
}

// cut is the three-way check. The standby is compared as the leader
// stands, leases in flight and all. A recovered service has expired every
// open lease, so the leader is then brought to the same place the only way
// a live one can be — every worker deregisters — and must equal the
// recovery in every JobStatus field, tenant state and slot EWMA; the
// standby, having streamed those expiries, must still mirror it.
func (m *mirror) cut(name string) {
	m.t.Helper()
	assertFollowerMirrors(m.t, m.fl, m.s)

	rec, err := service.New(specDurableConfig(copyDirForTest(m.t, m.dir), m.clk))
	if err != nil {
		m.t.Fatalf("cut %s: recovery from a copy of the leader's data dir: %v", name, err)
	}
	defer rec.Close()
	for _, w := range m.s.Workers() {
		if err := m.s.Deregister(w.WorkerID); err != nil {
			m.t.Fatal(err)
		}
	}
	if got, want := rec.Jobs(), m.s.Jobs(); !reflect.DeepEqual(got, want) {
		m.t.Errorf("cut %s: jobs\nrecovered %+v\nleader    %+v", name, got, want)
	}
	if got, want := normalizeTenants(rec.Tenants()), normalizeTenants(m.s.Tenants()); !reflect.DeepEqual(got, want) {
		m.t.Errorf("cut %s: tenants\nrecovered %+v\nleader    %+v", name, got, want)
	}
	if got, want := allSlotsTelemetry(m.t, rec), allSlotsTelemetry(m.t, m.s); !reflect.DeepEqual(got, want) {
		m.t.Errorf("cut %s: worker telemetry\nrecovered %+v\nleader    %+v", name, got, want)
	}
	assertFollowerMirrors(m.t, m.fl, m.s)
	if m.t.Failed() {
		m.t.FailNow()
	}
}

func testMirrorDifferential(t *testing.T) {
	m := &mirror{
		t:   t,
		clk: &policyClock{base: time.Unix(1_700_000_000, 0)},
		dir: t.TempDir(),
		rng: rand.New(rand.NewSource(20260926)),
	}
	cfg := specDurableConfig(m.dir, m.clk)
	cfg.SnapshotEvery = 1 << 20 // only the forced snapshots below
	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	m.s, m.url, m.fl = s, srv.URL, startFollower(t, srv.URL)

	// Phase 1 — journal tail only. A replicating scheduler under seeded
	// churn next to a job cut mid-speculation: primary and twin both open.
	bulk := m.submit("bulk", "storage-affinity", "tb", 40)
	m.submit("first", "workqueue", "", 8)
	m.churn("bulk", 14)
	m.stageTwin("first")
	m.cut("mid-speculation, no snapshot yet")

	// Phase 2 — a lease and its worker's registration expire by the clock.
	held := m.register(0, "bulk")
	m.mustPull(held)
	m.clk.ms.Add(2 * time.Hour.Milliseconds())
	m.s.SweepForTest()
	if _, err := m.s.Pull(nil, held, 0); err == nil {
		t.Fatal("worker survived two lease TTLs of silence")
	}
	// A twin that wins: its report completes the task, the straggling
	// primary is cancelled and says so when it finally reports. The
	// snapshot lands between the two, so the primary's grant is in the
	// snapshot's ledger and its end in the tail.
	m.submit("wins", "rest", "ta", 8)
	slow, fast, primary, twin := m.stageTwin("wins")
	if rep := m.report(twin, fast, api.OutcomeSuccess, 50); rep.Cancelled {
		t.Fatalf("winning twin: %+v", rep)
	}
	if err := m.s.SnapshotForTest(); err != nil {
		t.Fatal(err)
	}
	if rep := m.report(primary, slow, api.OutcomeSuccess, 400); !rep.Cancelled {
		t.Fatalf("beaten primary: %+v", rep)
	}
	if _, err := m.s.SetTenantQuota("tb", 3); err != nil {
		t.Fatal(err)
	}
	m.churn("bulk", 10)
	m.cut("twin won, snapshot plus tail")

	// Phase 3 — a streaming slot holds a twin. A stream pipelines several
	// leases on one slot and the scheduler cannot see a twin, so once every
	// task has started, a replicating scheduler asked for that slot would
	// answer with the very task whose twin it runs. The job must offer the
	// slot nothing until the twin ends; the cut then finds primary and twin
	// open and one free place in the pipeline.
	dup := m.submit("dup", "storage-affinity", "ta", 6)
	slow = m.register(0, "dup")
	primary = m.mustPull(slow)
	fast = m.register(1, "dup")
	st := m.stream(fast, 2)
	for i := 0; i < 3; i++ {
		m.report(st.next(), fast, api.OutcomeSuccess, 100)
	}
	d, e := st.next(), st.next() // the last two unstarted tasks: the pipeline is full
	m.clk.ms.Add(1000)
	m.s.SweepForTest()
	m.report(d, fast, api.OutcomeSuccess, 10)
	if twin = st.next(); twin.Task.ID != primary.Task.ID {
		t.Fatalf("streamed twin runs task %d, straggler holds task %d", twin.Task.ID, primary.Task.ID)
	}
	m.report(e, fast, api.OutcomeSuccess, 10)
	if got := st.settle(); len(got) != 0 {
		t.Fatalf("slot running task %d's twin was granted %+v", twin.Task.ID, got)
	}
	if js, err := m.s.JobStatus(dup); err != nil || js.Dispatched != 7 || js.Speculated != 1 || js.Completed != 5 {
		t.Fatalf("dup job with its twin on a streaming slot: %+v (err=%v)", js, err)
	}
	m.cut("a twin on a streaming slot")

	// Phase 4 — a twin that loses, to the report that completes its job:
	// the job finishes with the twin still in flight. The snapshot
	// summarises the completed job; the twin's end arrives in the tail.
	last := m.submit("last", "workqueue", "tc", 4)
	slow, fast, primary, twin = m.stageTwin("last")
	if rep := m.report(primary, slow, api.OutcomeSuccess, 10); rep.JobState != api.JobCompleted {
		t.Fatalf("primary's report should complete the job: %+v", rep)
	}
	if err := m.s.SnapshotForTest(); err != nil {
		t.Fatal(err)
	}
	if rep := m.report(twin, fast, api.OutcomeFailure, 10); !rep.Cancelled {
		t.Fatalf("losing twin: %+v", rep)
	}
	m.cut("job completed under a live twin")

	// Phase 5 — retention: the completed job is deleted and, being its
	// tenant's only anchor, takes the tenant with it; the bulk job drains on.
	if err := m.s.DeleteJob(last); err != nil {
		t.Fatal(err)
	}
	m.churn("bulk", 200)
	if st, err := m.s.JobStatus(bulk); err != nil || st.Completed == 0 {
		t.Fatalf("bulk job after churn: %+v (err=%v)", st, err)
	}
	m.cut("after a delete")
}

// TestFollowerReadyzAndRedirect pins the follower's HTTP contract: truthful
// readiness with role and lag, and 421 + leader hint for mutations.
func TestFollowerReadyzAndRedirect(t *testing.T) {
	s, err := service.New(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	fl := startFollower(t, srv.URL)

	if _, err := s.SubmitJob(api.SubmitJobRequest{Name: "j", Algorithm: "workqueue", Workload: syntheticWorkload(4, 2), Seed: 1}); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, fl, s)

	var rd api.Readiness
	getJSON(t, fl.Handler(), "/readyz", &rd)
	if rd.Role != api.RoleFollower || rd.Status != "ready" {
		t.Fatalf("readiness %+v", rd)
	}
	if rd.Leader != srv.URL {
		t.Fatalf("readiness leader %q, want %q", rd.Leader, srv.URL)
	}
	if rd.LastLSN == 0 || rd.LastLSN != s.ReplicationLastLSN() {
		t.Fatalf("readiness lsn %d, leader %d", rd.LastLSN, s.ReplicationLastLSN())
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", nil)
	rr := httptest.NewRecorder()
	fl.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusMisdirectedRequest {
		t.Fatalf("POST /v1/jobs on follower: %d, want 421", rr.Code)
	}
	if got := rr.Header().Get(api.LeaderHeader); got != srv.URL {
		t.Fatalf("leader hint %q, want %q", got, srv.URL)
	}
}

// TestFollowerSnapshotCatchUp connects the standby after the leader has
// already snapshotted and rotated its WAL away: the only complete source
// is the snapshot, which must be shipped — one self-contained message,
// assembled from the leader's manifest and workload files — and installed
// as the same files, in a data dir ordinary recovery accepts.
func TestFollowerSnapshotCatchUp(t *testing.T) {
	s, err := service.New(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	jobID, err := s.SubmitJob(api.SubmitJobRequest{Name: "pre", Algorithm: "rest", Workload: syntheticWorkload(10, 3), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pullSequence(t, s, 4)
	if err := s.SnapshotForTest(); err != nil {
		t.Fatal(err)
	}
	pullSequence(t, s, 2) // post-rotation tail frames

	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	dir := t.TempDir()
	// A workload file no checkpoint refers to, as an interrupted earlier
	// catch-up would leave; the follower must not keep it.
	if err := os.WriteFile(filepath.Join(dir, workloadFileOf("j999")), []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	fl := startFollowerIn(t, dir, srv.URL)
	waitCaughtUp(t, fl, s)

	if got := fl.ReplicationCounters().SnapshotsApplied.Load(); got == 0 {
		t.Fatal("follower caught up without applying the snapshot")
	}
	var gotJobs []api.JobStatus
	getJSON(t, fl.Handler(), "/v1/jobs", &gotJobs)
	wantJobs := normalizeForFollower(s.Jobs())
	gotJobs = normalizeForFollower(gotJobs)
	if len(gotJobs) != 1 || !reflect.DeepEqual(gotJobs[0], wantJobs[0]) {
		t.Fatalf("after snapshot catch-up:\nfollower %+v\nleader   %+v", gotJobs, wantJobs)
	}

	// On disk the follower holds what a leader holds: the manifest without
	// the workload, the workload in its own file, nothing else.
	want := []string{"snapshot.json", "wal.log", workloadFileOf(jobID)}
	if got := dirNames(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower data dir holds %v, want %v", got, want)
	}
	if _, jobs := manifestJobs(t, dir); jobs[jobID] == nil || jobs[jobID].Inline {
		t.Fatal("follower manifest lacks the job, or carries its workload inline")
	}
	// And ordinary recovery accepts it: promotion is New() over that dir.
	wantStatus, err := s.JobStatus(jobID)
	if err != nil {
		t.Fatal(err)
	}
	s.CrashForTest()
	promoted, err := fl.Promote()
	if err != nil {
		t.Fatalf("promotion over the caught-up data dir: %v", err)
	}
	defer promoted.Close()
	gotStatus, err := promoted.JobStatus(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if gotStatus.Completed != wantStatus.Completed || gotStatus.Remaining != wantStatus.Remaining {
		t.Fatalf("promoted job %+v, leader had %+v", gotStatus, wantStatus)
	}
	if rest := pullSequence(t, promoted, -1); len(rest) != wantStatus.Remaining {
		t.Fatalf("promoted node drained %d tasks, want %d", len(rest), wantStatus.Remaining)
	}
}

// TestFollowerHaltsOnDivergence feeds the standby a stream with an LSN
// gap. It must halt — permanently, without applying past the gap — while
// continuing to serve the prefix it holds.
func TestFollowerHaltsOnDivergence(t *testing.T) {
	leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != replicate.StreamPath {
			http.NotFound(w, r)
			return
		}
		enc := replicate.NewEncoder(w)
		frames := journal.AppendFrame(nil, 1, service.QuotaRecordForTest("ta", 5, 1))
		frames = journal.AppendFrame(frames, 3, service.QuotaRecordForTest("tb", 9, 2)) // gap: 2 skipped
		_, _ = enc.Frames(frames)
		_ = enc.Flush()
	}))
	t.Cleanup(leader.Close)

	fl := startFollower(t, leader.URL)
	deadline := time.Now().Add(5 * time.Second)
	for fl.Halted() == nil {
		if time.Now().After(deadline) {
			t.Fatal("follower never halted on the LSN gap")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if fl.LastLSN() != 1 {
		t.Fatalf("follower at lsn %d after halt, want 1 (nothing past the gap)", fl.LastLSN())
	}
	// Still serving the valid prefix, and the halt is scrapeable.
	var rd api.Readiness
	getJSON(t, fl.Handler(), "/readyz", &rd)
	if rd.LastLSN != 1 {
		t.Fatalf("halted follower readiness %+v", rd)
	}
	if fl.ReplicationCounters().Halted.Load() != 1 {
		t.Fatal("halt not reflected in the gridsched_replication_halted gauge")
	}
}

// TestFollowerResumesAcrossRestart closes a caught-up follower and builds
// a new one over the same data dir: it must resume from its local LSN,
// not refetch history, and still match the leader.
func TestFollowerResumesAcrossRestart(t *testing.T) {
	s, err := service.New(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	dir := t.TempDir()
	cfg := durableConfig(dir)
	fl, err := service.NewFollower(cfg, service.FollowerConfig{Leader: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitJob(api.SubmitJobRequest{Name: "j", Algorithm: "rest", Workload: syntheticWorkload(8, 3), Seed: 5}); err != nil {
		t.Fatal(err)
	}
	pullSequence(t, s, 3)
	waitCaughtUp(t, fl, s)
	resumeFrom := fl.LastLSN()
	fl.Close()

	pullSequence(t, s, 3) // progress while the standby is down

	fl2, err := service.NewFollower(cfg, service.FollowerConfig{Leader: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer fl2.Close()
	if fl2.LastLSN() < resumeFrom {
		t.Fatalf("restarted follower regressed: lsn %d, had %d", fl2.LastLSN(), resumeFrom)
	}
	waitCaughtUp(t, fl2, s)
	if got := fl2.ReplicationCounters().FramesApplied.Load(); got == 0 {
		t.Fatal("restarted follower applied nothing — stream did not resume")
	}
}

// TestPromotedFollowerDispatchMatchesLeaderRecovery is the identity proof
// behind failover: kill the leader, promote the standby, and the promoted
// node must dispatch the remaining tasks in exactly the order the
// uninterrupted leader would have — same schedulers, same RNG draws, same
// fair-share state, reconstructed purely from replicated frames.
func TestPromotedFollowerDispatchMatchesLeaderRecovery(t *testing.T) {
	const tasks, prefix = 80, 30
	w := syntheticWorkload(tasks, 4)

	// Reference: one uninterrupted in-memory service.
	ref := newService(t, service.Config{})
	if _, err := ref.SubmitJob(api.SubmitJobRequest{Name: "job", Algorithm: "combined.2", Workload: w, Seed: 99}); err != nil {
		t.Fatal(err)
	}
	refSeq := pullSequence(t, ref, -1)
	if len(refSeq) != tasks {
		t.Fatalf("reference dispatched %d of %d", len(refSeq), tasks)
	}

	// Leader + hot standby.
	leader, err := service.New(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(leader.Close)
	srv := httptest.NewServer(leader.Handler())
	t.Cleanup(srv.Close)

	if _, err := leader.SubmitJob(api.SubmitJobRequest{Name: "job", Algorithm: "combined.2", Workload: w, Seed: 99}); err != nil {
		t.Fatal(err)
	}
	// The standby joins after a checkpoint, so what it starts from is the
	// catch-up document — the job's ledger and the draw count beside it — and
	// only the second half of the prefix reaches it as journal frames.
	gotSeq := pullSequence(t, leader, prefix/2)
	if err := leader.SnapshotForTest(); err != nil {
		t.Fatal(err)
	}
	fl := startFollower(t, srv.URL)
	gotSeq = append(gotSeq, pullSequence(t, leader, prefix-prefix/2)...)
	waitCaughtUp(t, fl, leader)
	if got := fl.ReplicationCounters().SnapshotsApplied.Load(); got == 0 {
		t.Fatal("the standby never took the catch-up document")
	}

	// Leader dies without warning; standby takes over.
	leader.CrashForTest()
	svc, err := fl.Promote()
	if err != nil {
		t.Fatalf("promotion: %v", err)
	}
	defer svc.Close()
	if !fl.Promoted() {
		t.Fatal("Promoted() false after successful Promote")
	}
	// Promotion is recovery: the replicated ledger folds, the replicated
	// frames are re-asked on top of it.
	if c := svc.Counters(); c.ReplayFolded.Load() == 0 || c.ReplayReasked.Load() == 0 {
		t.Fatalf("promotion folded %d events and re-asked %d; want both", c.ReplayFolded.Load(), c.ReplayReasked.Load())
	}
	gotSeq = append(gotSeq, pullSequence(t, svc, -1)...)

	if len(gotSeq) != len(refSeq) {
		t.Fatalf("dispatched %d tasks across the failover, reference %d", len(gotSeq), len(refSeq))
	}
	for i := range refSeq {
		if gotSeq[i] != refSeq[i] {
			t.Fatalf("dispatch %d: task %d after failover, task %d uninterrupted", i, gotSeq[i], refSeq[i])
		}
	}

	// Second promotion attempt is refused.
	if _, err := fl.Promote(); err == nil {
		t.Fatal("second Promote succeeded")
	} else if se := new(service.Error); !asServiceError(err, &se) || se.Code != http.StatusConflict {
		t.Fatalf("second Promote error: %v", err)
	}
}
