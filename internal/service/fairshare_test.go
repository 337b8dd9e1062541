package service_test

import (
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gridsched"
	"gridsched/internal/service"
	"gridsched/internal/service/api"
	"gridsched/internal/service/client"
	"gridsched/internal/testkit"
)

// submitTenant submits a workqueue job under a tenant and weight.
func submitTenant(t *testing.T, s *service.Service, name, tenant string, weight, tasks int) string {
	t.Helper()
	id, err := s.SubmitJob(api.SubmitJobRequest{
		Name: name, Algorithm: "workqueue", Workload: syntheticWorkload(tasks, 2),
		Tenant: tenant, Weight: weight,
	})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestFairShareConvergence is the fairness acceptance bar: two tenants at
// weights 2:1 over one contended worker converge to a 2:1 dispatch split
// (the arbiter is deterministic, so ±5% is generous).
func TestFairShareConvergence(t *testing.T) {
	s := newService(t, service.Config{})
	gold := submitTenant(t, s, "gold-job", "gold", 2, 600)
	bronze := submitTenant(t, s, "bronze-job", "bronze", 1, 600)
	reg := register(t, s, 0)

	counts := map[string]int{}
	const dispatches = 300
	for i := 0; i < dispatches; i++ {
		a := pull(t, s, reg.WorkerID)
		if a == nil {
			t.Fatalf("dispatch %d: nothing dispatchable with both jobs half full", i)
		}
		counts[a.JobID]++
		if _, err := s.Report(a.ID, reg.WorkerID, api.OutcomeSuccess); err != nil {
			t.Fatal(err)
		}
	}
	goldShare := float64(counts[gold]) / dispatches
	if math.Abs(goldShare-2.0/3.0) > 0.05 {
		t.Fatalf("gold dispatched %d of %d (share %.3f), want 2/3 +-5%%", counts[gold], dispatches, goldShare)
	}
	if counts[bronze] == 0 {
		t.Fatal("bronze starved")
	}

	// The tenant listing reports targets and (windowed) achieved shares.
	var goldSt, bronzeSt *api.TenantStatus
	for _, st := range s.Tenants() {
		st := st
		switch st.Tenant {
		case "gold":
			goldSt = &st
		case "bronze":
			bronzeSt = &st
		}
	}
	if goldSt == nil || bronzeSt == nil {
		t.Fatalf("tenant listing missing gold/bronze: %+v", s.Tenants())
	}
	if math.Abs(goldSt.ShareTarget-2.0/3.0) > 1e-9 || math.Abs(bronzeSt.ShareTarget-1.0/3.0) > 1e-9 {
		t.Fatalf("share targets %g/%g, want 2/3 and 1/3", goldSt.ShareTarget, bronzeSt.ShareTarget)
	}
	if math.Abs(goldSt.ShareAchieved-2.0/3.0) > 0.05 {
		t.Fatalf("gold achieved %g, want ~2/3", goldSt.ShareAchieved)
	}
	if goldSt.Dispatches != int64(counts[gold]) || bronzeSt.Dispatches != int64(counts[bronze]) {
		t.Fatalf("dispatch totals %d/%d, counted %d/%d",
			goldSt.Dispatches, bronzeSt.Dispatches, counts[gold], counts[bronze])
	}
}

// TestUnweightedJobDrains: a job submitted with no tenant and no weight
// shares the pool with a heavily weighted tenant and still completes — the
// min-tag heap cannot starve any runnable job.
func TestUnweightedJobDrains(t *testing.T) {
	s := newService(t, service.Config{})
	if _, err := s.SubmitJob(api.SubmitJobRequest{
		Name: "heavy", Algorithm: "workqueue", Workload: syntheticWorkload(60, 2),
		Tenant: "heavy", Weight: 8,
	}); err != nil {
		t.Fatal(err)
	}
	plainID, err := s.SubmitJob(api.SubmitJobRequest{
		Name: "plain", Algorithm: "workqueue", Workload: syntheticWorkload(60, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := register(t, s, 0)
	for i := 0; i < 60*2+10; i++ {
		a := pull(t, s, reg.WorkerID)
		if a == nil {
			break
		}
		if _, err := s.Report(a.ID, reg.WorkerID, api.OutcomeSuccess); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.JobStatus(plainID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.JobCompleted {
		t.Fatalf("unweighted job %s still %s (completed %d/%d)", plainID, st.State, st.Completed, st.Tasks)
	}
	if st.Weight != 1 || st.Tenant != "" {
		t.Fatalf("resolved tenant/weight = %q/%d, want \"\"/1", st.Tenant, st.Weight)
	}
}

// TestTenantQuotaEnforced: a tenant at its in-flight cap is skipped at
// lease grant — other tenants keep dispatching — and a report returns the
// capacity.
func TestTenantQuotaEnforced(t *testing.T) {
	s := newService(t, service.Config{})
	capped := submitTenant(t, s, "capped-job", "capped", 4, 100)
	other := submitTenant(t, s, "other-job", "other", 1, 100)
	if _, err := s.SetTenantQuota("capped", 1); err != nil {
		t.Fatal(err)
	}

	w1, w2, w3 := register(t, s, 0), register(t, s, 0), register(t, s, 1)
	a1 := pull(t, s, w1.WorkerID)
	if a1 == nil || a1.JobID != capped {
		t.Fatalf("first dispatch went to %+v, want the capped tenant (most underserved)", a1)
	}
	// Quota 1 is now consumed; the capped tenant must be skipped while a1
	// is in flight.
	for i, w := range []*api.RegisterResponse{w2, w3} {
		a := pull(t, s, w.WorkerID)
		if a == nil || a.JobID != other {
			t.Fatalf("pull %d: got %+v, want job %s (capped tenant at quota)", i, a, other)
		}
		if _, err := s.Report(a.ID, w.WorkerID, api.OutcomeSuccess); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Report(a1.ID, w1.WorkerID, api.OutcomeSuccess); err != nil {
		t.Fatal(err)
	}
	// Capacity returned; the badly underserved capped tenant goes first.
	if a := pull(t, s, w1.WorkerID); a == nil || a.JobID != capped {
		t.Fatalf("after report got %+v, want capped job %s", a, capped)
	}
	for _, st := range s.Tenants() {
		if st.Tenant == "capped" {
			if st.MaxInFlight != 1 || st.Throttles == 0 || st.InFlight != 1 {
				t.Fatalf("capped tenant status %+v, want maxInFlight 1, inFlight 1, throttles > 0", st)
			}
		}
	}
}

// TestTenantQuotaReturnedOnExpiry: a crashed worker's lease expiring gives
// the tenant its quota slot back.
func TestTenantQuotaReturnedOnExpiry(t *testing.T) {
	s := newService(t, service.Config{
		NewScheduler:      gridsched.SchedulerFactory(),
		TenantMaxInFlight: 1,
		LeaseTTL:          150 * time.Millisecond,
	})
	capped := submitTenant(t, s, "only", "capped", 1, 50)
	w1, w2 := register(t, s, 0), register(t, s, 0)
	if a := pull(t, s, w1.WorkerID); a == nil || a.JobID != capped {
		t.Fatalf("got %+v, want job %s", a, capped)
	}
	// w1 goes silent. Until its lease expires w2 gets nothing (quota), and
	// afterwards the requeued task is dispatchable again.
	if a := pull(t, s, w2.WorkerID); a != nil {
		t.Fatalf("tenant over quota dispatched %+v", a)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := s.Pull(nil, w2.WorkerID, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status == api.StatusAssigned {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expired lease never returned the tenant's quota slot")
		}
	}
}

// TestQuotaReleaseWakesParkedPull: a success report that returns a
// throttled tenant's quota capacity must wake parked long polls — the
// freed slot makes work dispatchable, unlike a plain success on an
// unthrottled tenant.
func TestQuotaReleaseWakesParkedPull(t *testing.T) {
	s := newService(t, service.Config{
		NewScheduler:      gridsched.SchedulerFactory(),
		TenantMaxInFlight: 1,
	})
	capped := submitTenant(t, s, "only", "capped", 1, 50)
	w1, w2 := register(t, s, 0), register(t, s, 0)
	a1 := pull(t, s, w1.WorkerID)
	if a1 == nil || a1.JobID != capped {
		t.Fatalf("got %+v, want job %s", a1, capped)
	}
	woken := make(chan *api.PullResponse, 1)
	go func() {
		resp, _ := s.Pull(nil, w2.WorkerID, 10*time.Second)
		woken <- resp
	}()
	time.Sleep(100 * time.Millisecond) // let the pull park on the quota
	if _, err := s.Report(a1.ID, w1.WorkerID, api.OutcomeSuccess); err != nil {
		t.Fatal(err)
	}
	select {
	case resp := <-woken:
		if resp == nil || resp.Status != api.StatusAssigned {
			t.Fatalf("woken pull got %+v, want an assignment", resp)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("report freed the tenant's quota slot but the parked pull stayed parked")
	}
}

// TestFairShareValidation rejects malformed fair-share parameters.
func TestFairShareValidation(t *testing.T) {
	s := newService(t, service.Config{})
	w := syntheticWorkload(4, 2)
	for _, tc := range []struct {
		name string
		req  api.SubmitJobRequest
	}{
		{"negative weight", api.SubmitJobRequest{Algorithm: "workqueue", Workload: w, Weight: -1}},
		{"huge weight", api.SubmitJobRequest{Algorithm: "workqueue", Workload: w, Weight: 1<<20 + 1}},
		{"long tenant", api.SubmitJobRequest{Algorithm: "workqueue", Workload: w, Tenant: strings.Repeat("x", 200)}},
		{"tenant with slash", api.SubmitJobRequest{Algorithm: "workqueue", Workload: w, Tenant: "team/a"}},
		{"dot-dot tenant", api.SubmitJobRequest{Algorithm: "workqueue", Workload: w, Tenant: ".."}},
		{"tenant with space", api.SubmitJobRequest{Algorithm: "workqueue", Workload: w, Tenant: "team a"}},
		{"non-utf8 tenant", api.SubmitJobRequest{Algorithm: "workqueue", Workload: w, Tenant: "t\xff"}},
	} {
		_, err := s.SubmitJob(tc.req)
		var se *service.Error
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !asServiceError(err, &se) || se.Code != http.StatusBadRequest {
			t.Fatalf("%s: got %v, want 400", tc.name, err)
		}
	}
	if _, err := s.SetTenantQuota("t", -2); err == nil {
		t.Fatal("negative quota accepted")
	}
	if _, err := s.SetTenantQuota("", 1); err == nil {
		t.Fatal("empty tenant accepted")
	}
	if _, err := s.SetTenantQuota("team/a", 1); err == nil {
		t.Fatal("unaddressable tenant name accepted")
	}
}

func asServiceError(err error, out **service.Error) bool {
	se, ok := err.(*service.Error)
	if ok {
		*out = se
	}
	return ok
}

// jobTask identifies one dispatch in a cross-job sequence.
type jobTask struct {
	job  string
	task int
}

// pullPairs drives one worker through n dispatch+report rounds (all of
// them when n < 0), returning the exact (job, task) dispatch sequence.
func pullPairs(t *testing.T, s *service.Service, n int) []jobTask {
	t.Helper()
	reg := register(t, s, 0)
	var seq []jobTask
	for n < 0 || len(seq) < n {
		resp, err := s.Pull(nil, reg.WorkerID, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != api.StatusAssigned {
			if resp.OpenJobs == 0 {
				break
			}
			continue
		}
		seq = append(seq, jobTask{job: resp.Assignment.JobID, task: int(resp.Assignment.Task.ID)})
		if _, err := s.Report(resp.Assignment.ID, reg.WorkerID, api.OutcomeSuccess); err != nil {
			t.Fatal(err)
		}
	}
	return seq
}

// submitFairMix submits the three-job, two-tenant mix used by the
// recovery-equivalence test: a weighted randomized worker-centric job, a
// lighter one, and an unweighted workqueue job.
func submitFairMix(t *testing.T, s *service.Service) {
	t.Helper()
	for _, j := range []struct {
		name, algo, tenant string
		weight, seed       int
	}{
		{"a", "combined.2", "gold", 2, 7},
		{"b", "combined.2", "bronze", 1, 9},
		{"c", "workqueue", "", 0, 0},
	} {
		if _, err := s.SubmitJob(api.SubmitJobRequest{
			Name: j.name, Algorithm: j.algo, Workload: syntheticWorkload(60, 3),
			Tenant: j.tenant, Weight: j.weight, Seed: int64(j.seed),
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFairDispatchRecoveryIdentical is the fairness half of the recovery
// acceptance bar: with multiple tenant-weighted jobs resident, a crash and
// recovery mid-run (with a snapshot boundary inside the prefix) must
// reproduce the exact dispatch sequence — job interleaving AND task choice
// — of an uninterrupted run. The arbiter tags, virtual time, and scheduler
// RNG streams all have to come back bit-identical for this to hold.
func TestFairDispatchRecoveryIdentical(t *testing.T) {
	// Reference: uninterrupted, in-memory.
	ref := newService(t, service.Config{})
	submitFairMix(t, ref)
	want := pullPairs(t, ref, -1)
	if len(want) < 3*60 {
		t.Fatalf("reference dispatched %d, want at least %d", len(want), 3*60)
	}

	// Crashy twin: journaled, snapshot mid-prefix, crash, recover, drain.
	dir := t.TempDir()
	s1, err := service.New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	submitFairMix(t, s1)
	got := pullPairs(t, s1, 20)
	if err := s1.SnapshotForTest(); err != nil {
		t.Fatal(err)
	}
	got = append(got, pullPairs(t, s1, 15)...)
	s1.CrashForTest()

	s2, err := service.New(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.Close()
	got = append(got, pullPairs(t, s2, -1)...)

	if len(got) != len(want) {
		t.Fatalf("dispatched %d across the crash, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch %d: %+v after recovery, %+v uninterrupted", i, got[i], want[i])
		}
	}
}

// TestTenantStateSurvivesRestart: quota overrides and per-tenant dispatch
// totals are durable; liveness state (in-flight) restarts at zero.
func TestTenantStateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := service.New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.SetTenantQuota("q", 3); err != nil {
		t.Fatal(err)
	}
	jobID := submitTenant(t, s1, "qjob", "q", 2, 40)
	n := len(pullPairs(t, s1, 5))
	if n != 5 {
		t.Fatalf("dispatched %d, want 5", n)
	}
	s1.Close()

	s2, err := service.New(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.Close()
	found := false
	for _, st := range s2.Tenants() {
		if st.Tenant != "q" {
			continue
		}
		found = true
		if st.MaxInFlight != 3 {
			t.Fatalf("recovered quota %d, want 3", st.MaxInFlight)
		}
		if st.Dispatches != 5 {
			t.Fatalf("recovered dispatch total %d, want 5", st.Dispatches)
		}
		if st.InFlight != 0 {
			t.Fatalf("recovered in-flight %d, want 0 (liveness state)", st.InFlight)
		}
	}
	if !found {
		t.Fatalf("tenant q missing after restart: %+v", s2.Tenants())
	}
	st, err := s2.JobStatus(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tenant != "q" || st.Weight != 2 {
		t.Fatalf("recovered job tenant/weight %q/%d, want q/2", st.Tenant, st.Weight)
	}
}

// TestTenantPrunedWithLastJob: tenant retention follows job retention —
// deleting a tenant's last job record drops the tenant from listings and
// metrics, unless a quota override keeps it relevant.
func TestTenantPrunedWithLastJob(t *testing.T) {
	s := newService(t, service.Config{})
	ephemeral := submitTenant(t, s, "run-1", "ephemeral", 1, 3)
	pinned := submitTenant(t, s, "run-2", "pinned", 1, 3)
	if _, err := s.SetTenantQuota("pinned", 4); err != nil {
		t.Fatal(err)
	}
	if n := len(pullPairs(t, s, -1)); n != 6 {
		t.Fatalf("drained %d dispatches, want 6", n)
	}
	for _, id := range []string{ephemeral, pinned} {
		if err := s.DeleteJob(id); err != nil {
			t.Fatal(err)
		}
	}
	left := s.Tenants()
	if len(left) != 1 || left[0].Tenant != "pinned" {
		t.Fatalf("tenants after deleting all jobs: %+v, want only the quota-pinned one", left)
	}
	// Reverting the survivor's quota removes its last anchor too.
	if _, err := s.SetTenantQuota("pinned", 0); err != nil {
		t.Fatal(err)
	}
	if left := s.Tenants(); len(left) != 0 {
		t.Fatalf("tenants after quota revert: %+v, want none", left)
	}
}

// TestQuotaRevertNotResurrectedByRecovery: a set-then-revert quota pair in
// the journal tail must not re-materialize the pruned tenant on replay.
func TestQuotaRevertNotResurrectedByRecovery(t *testing.T) {
	dir := t.TempDir()
	s1, err := service.New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.SetTenantQuota("zombie", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.SetTenantQuota("zombie", 0); err != nil {
		t.Fatal(err)
	}
	if left := s1.Tenants(); len(left) != 0 {
		t.Fatalf("live tenants after revert: %+v", left)
	}
	s1.CrashForTest() // both opQuota records sit in the journal tail

	s2, err := service.New(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.Close()
	if left := s2.Tenants(); len(left) != 0 {
		t.Fatalf("recovery resurrected pruned tenants: %+v", left)
	}
}

// TestDeletedTenantNotResurrectedByTailDelete: a job delete sitting in
// the journal tail (after a snapshot that still carried the job) must
// leave the tenant's resident-record count at exactly zero on recovery —
// not negative — so the tenant is pruned just as the live process pruned
// it, and stays prunable forever after. Regression test for a recovery
// ordering bug: deletes used to apply before record counting.
func TestDeletedTenantNotResurrectedByTailDelete(t *testing.T) {
	dir := t.TempDir()
	s1, err := service.New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	jobID := submitTenant(t, s1, "once", "ephemeral", 1, 2)
	if n := len(pullPairs(t, s1, -1)); n != 2 {
		t.Fatalf("drained %d dispatches, want 2", n)
	}
	// Snapshot while the job record is resident, so the delete below lands
	// in the journal tail of the next recovery.
	if err := s1.SnapshotForTest(); err != nil {
		t.Fatal(err)
	}
	if err := s1.DeleteJob(jobID); err != nil {
		t.Fatal(err)
	}
	if left := s1.Tenants(); len(left) != 0 {
		t.Fatalf("live tenants after delete: %+v", left)
	}
	s1.CrashForTest()

	s2, err := service.New(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if left := s2.Tenants(); len(left) != 0 {
		t.Fatalf("recovery resurrected the deleted job's tenant: %+v", left)
	}
	// The count must be zero, not negative: one more live submit+delete
	// cycle for the same tenant must still prune it.
	jobID2 := submitTenant(t, s2, "again", "ephemeral", 1, 2)
	if n := len(pullPairs(t, s2, -1)); n != 2 {
		t.Fatalf("drained %d dispatches, want 2", n)
	}
	if err := s2.DeleteJob(jobID2); err != nil {
		t.Fatal(err)
	}
	if left := s2.Tenants(); len(left) != 0 {
		t.Fatalf("tenant record count recovered skewed; tenant leaked: %+v", left)
	}
	s2.Close()
}

// TestTenantPrunedWhenLastLeaseEnds: a cancelled replica's lease can
// outlive its job's record (job completed, then deleted); the tenant must
// be pruned when that last lease ends, not leak forever.
func TestTenantPrunedWhenLastLeaseEnds(t *testing.T) {
	s := newService(t, service.Config{})
	jobID, err := s.SubmitJob(api.SubmitJobRequest{
		Name: "replicated", Algorithm: "storage-affinity",
		Workload: syntheticWorkload(1, 2), Tenant: "leasey",
	})
	if err != nil {
		t.Fatal(err)
	}
	w1, w2 := register(t, s, 0), register(t, s, 1)
	a1 := pull(t, s, w1.WorkerID)
	if a1 == nil {
		t.Fatal("no primary assignment")
	}
	a2 := pull(t, s, w2.WorkerID) // idle site replicates the lone task
	if a2 == nil {
		t.Skip("scheduler did not replicate; scenario not reachable")
	}
	if _, err := s.Report(a1.ID, w1.WorkerID, api.OutcomeSuccess); err != nil {
		t.Fatal(err)
	}
	// Job completed; w2's replica is cancel-marked but still leased.
	if err := s.DeleteJob(jobID); err != nil {
		t.Fatal(err)
	}
	if left := s.Tenants(); len(left) != 1 {
		t.Fatalf("tenant should survive while its lease is in flight: %+v", left)
	}
	rep, err := s.Report(a2.ID, w2.WorkerID, api.OutcomeSuccess)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Cancelled {
		t.Fatalf("replica report %+v, want cancelled", rep)
	}
	if left := s.Tenants(); len(left) != 0 {
		t.Fatalf("tenant leaked after its last lease ended: %+v", left)
	}
}

// TestLateReportAfterDeleteSurvivesRecovery: a cancelled replica's report
// or expiry landing after its job was deleted AND a snapshot rotated the
// journal must not brick the data dir: the live path refuses to journal
// records naming non-resident jobs (replay treats one as corruption).
func TestLateReportAfterDeleteSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	s1, err := service.New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	jobID, err := s1.SubmitJob(api.SubmitJobRequest{
		Name: "replicated", Algorithm: "storage-affinity",
		Workload: syntheticWorkload(1, 2), Tenant: "leasey",
	})
	if err != nil {
		t.Fatal(err)
	}
	w1, w2 := register(t, s1, 0), register(t, s1, 1)
	a1 := pull(t, s1, w1.WorkerID)
	if a1 == nil {
		t.Fatal("no primary assignment")
	}
	a2 := pull(t, s1, w2.WorkerID)
	if a2 == nil {
		t.Skip("scheduler did not replicate; scenario not reachable")
	}
	if _, err := s1.Report(a1.ID, w1.WorkerID, api.OutcomeSuccess); err != nil {
		t.Fatal(err)
	}
	if err := s1.DeleteJob(jobID); err != nil {
		t.Fatal(err)
	}
	// Snapshot after the delete: the next recovery starts from a snapshot
	// that has never heard of the job.
	if err := s1.SnapshotForTest(); err != nil {
		t.Fatal(err)
	}
	// The late replica report must not append an unreplayable record.
	if rep, err := s1.Report(a2.ID, w2.WorkerID, api.OutcomeSuccess); err != nil || !rep.Cancelled {
		t.Fatalf("late replica report: %+v, %v", rep, err)
	}
	s1.CrashForTest()

	s2, err := service.New(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery after late report on deleted job: %v", err)
	}
	s2.Close()
}

// TestTenantHTTPSurface drives the tenant endpoints and metrics through
// the real HTTP protocol with the Go client.
func TestTenantHTTPSurface(t *testing.T) {
	s := newService(t, service.Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := testkit.WireCodec(t, client.New(ts.URL, nil))
	ctx := context.Background()

	if _, err := cl.SubmitTenantJob(ctx, "acme", 3, "job", "workqueue", 0, syntheticWorkload(20, 2)); err != nil {
		t.Fatal(err)
	}
	st, err := testkit.Call[api.TenantStatus](ctx, cl, http.MethodPut, "/v1/tenants/acme", api.TenantQuotaRequest{MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Tenant != "acme" || st.MaxInFlight != 2 || st.Weight != 3 {
		t.Fatalf("quota response %+v", st)
	}
	tenants, err := cl.Tenants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 1 || tenants[0].Tenant != "acme" || tenants[0].ShareTarget != 1 {
		t.Fatalf("tenant listing %+v", tenants)
	}
	if _, err := testkit.Call[api.TenantStatus](ctx, cl, http.MethodPut, "/v1/tenants/acme", api.TenantQuotaRequest{MaxInFlight: -1}); err == nil {
		t.Fatal("negative quota accepted over HTTP")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`gridsched_tenant_weight{tenant="acme"} 3`,
		`gridsched_tenant_quota{tenant="acme"} 2`,
		`gridsched_tenant_share_target{tenant="acme"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}
