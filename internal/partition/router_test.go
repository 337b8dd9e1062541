package partition_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gridsched"
	"gridsched/internal/core"
	"gridsched/internal/metrics"
	"gridsched/internal/middleware"
	"gridsched/internal/partition"
	"gridsched/internal/service"
	"gridsched/internal/service/api"
	"gridsched/internal/service/client"
	"gridsched/internal/testkit"
	"gridsched/internal/workload"
)

// testDeployment is two real partitions behind a real router, all over
// loopback TCP: the smallest topology where every cross-partition code
// path (keyed forwards, fan-out reads, degraded aggregation) is live.
type testDeployment struct {
	servers []*httptest.Server
	clients []*client.Client // direct per-partition clients
	router  *httptest.Server
	cl      *client.Client
}

func newDeployment(t *testing.T, parts int) *testDeployment {
	t.Helper()
	return newDeploymentBehind(t, parts, func(h http.Handler) http.Handler { return h })
}

// newDeploymentBehind is newDeployment with every partition's handler
// wrapped by ingress (e.g. the token-auth chain); the router stays bare,
// as cmd/gridrouter runs it.
func newDeploymentBehind(t *testing.T, parts int, ingress func(http.Handler) http.Handler) *testDeployment {
	t.Helper()
	return newDeploymentWith(t, parts, ingress, 0)
}

// newDeploymentWith is newDeploymentBehind with the partitions' lease TTL
// set (0: the service default).
func newDeploymentWith(t *testing.T, parts int, ingress func(http.Handler) http.Handler, leaseTTL time.Duration) *testDeployment {
	t.Helper()
	d := &testDeployment{}
	urls := make([]string, parts)
	for i := 0; i < parts; i++ {
		svc, err := service.New(service.Config{
			Topology:       service.Topology{Sites: 2, WorkersPerSite: 2, CapacityFiles: 1024},
			NewScheduler:   gridsched.SchedulerFactory(),
			LeaseTTL:       leaseTTL,
			PartitionIndex: i,
			PartitionCount: parts,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
		ts := httptest.NewServer(ingress(svc.Handler()))
		t.Cleanup(ts.Close)
		d.servers = append(d.servers, ts)
		d.clients = append(d.clients, client.New(ts.URL, nil))
		urls[i] = ts.URL
	}
	rt, err := partition.New(partition.Config{Partitions: urls, AggregateTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	d.router = httptest.NewServer(rt.Handler())
	t.Cleanup(d.router.Close)
	d.cl = client.New(d.router.URL, nil)
	return d
}

// keyOwnedBy is a submission id that hashes to partition want of count: a
// partition refuses a keyed submit it does not own.
func keyOwnedBy(want, count int) string {
	for i := 0; ; i++ {
		if sid := fmt.Sprintf("key-%d", i); partition.SubmitOwner(sid, count) == want {
			return sid
		}
	}
}

func testWorkload(tasks int) *workload.Workload {
	w := &workload.Workload{Name: "part-test", NumFiles: 64}
	for i := 0; i < tasks; i++ {
		w.Tasks = append(w.Tasks, workload.Task{
			ID:    workload.TaskID(i),
			Files: []workload.FileID{workload.FileID(i % 64)},
		})
	}
	return w
}

// TestRouterSubmitEquivalence: a submission routed through the router
// lands on the partition its idempotency key hashes to, and a direct
// retry of the same submission against that partition dedupes to the
// same job id — the "zero extra hops" contract partition-aware clients
// rely on.
func TestRouterSubmitEquivalence(t *testing.T) {
	d := newDeployment(t, 2)
	ctx := context.Background()
	for k := 0; k < 4; k++ {
		sid := fmt.Sprintf("equiv-%d", k)
		req := api.SubmitJobRequest{
			Name: "equiv", Algorithm: "workqueue", Workload: testWorkload(4),
			SubmissionID: sid,
		}
		viaRouter, err := d.cl.SubmitJobIdempotent(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		wantOwner := partition.SubmitOwner(sid, 2)
		gotOwner, ok := partition.Owner(viaRouter, 2)
		if !ok || gotOwner != wantOwner {
			t.Fatalf("job %q minted by partition %d (ok=%v), submission %q hashes to %d",
				viaRouter, gotOwner, ok, sid, wantOwner)
		}
		direct, err := d.clients[wantOwner].SubmitJobIdempotent(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if direct != viaRouter {
			t.Fatalf("direct retry minted %q, router submit minted %q — dedupe broken", direct, viaRouter)
		}
		// The router can fetch the job by id (keyed forward)...
		st, err := d.cl.Job(ctx, viaRouter)
		if err != nil {
			t.Fatal(err)
		}
		if st.ID != viaRouter {
			t.Fatalf("job fetch through router: got %q", st.ID)
		}
		// ...and the non-owner knows nothing about it.
		if _, err := d.clients[1-wantOwner].Job(ctx, viaRouter); err == nil {
			t.Fatalf("non-owning partition served job %q", viaRouter)
		}
	}
}

// TestRouterAggregation: cross-partition reads merge every partition's
// answer, and a dead partition degrades them to an explicit partial
// (200 + X-Gridsched-Partitions-Down) instead of an error.
func TestRouterAggregation(t *testing.T) {
	d := newDeployment(t, 2)
	ctx := context.Background()

	perPart := make([]int, 2)
	for k := 0; k < 6; k++ {
		sid := fmt.Sprintf("agg-%d", k)
		if _, err := d.cl.SubmitJobIdempotent(ctx, api.SubmitJobRequest{
			Name: "agg", Algorithm: "workqueue", Workload: testWorkload(2),
			Tenant: fmt.Sprintf("tenant-%d", k%2), Weight: 1,
			SubmissionID: sid,
		}); err != nil {
			t.Fatal(err)
		}
		perPart[partition.SubmitOwner(sid, 2)]++
	}
	if perPart[0] == 0 || perPart[1] == 0 {
		t.Fatalf("submissions all hashed to one partition (%v); pick different ids", perPart)
	}

	jobs, err := d.cl.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 6 {
		t.Fatalf("aggregated jobs: got %d, want 6", len(jobs))
	}
	a, _ := d.clients[0].Jobs(ctx)
	b, _ := d.clients[1].Jobs(ctx)
	if len(a)+len(b) != 6 || len(a) != perPart[0] || len(b) != perPart[1] {
		t.Fatalf("per-partition jobs %d+%d, want %v", len(a), len(b), perPart)
	}

	h, err := testkit.Call[api.Health](ctx, d.cl, http.MethodGet, "/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.Jobs != 6 {
		t.Fatalf("aggregated health jobs: got %d, want 6", h.Jobs)
	}

	tenants, err := d.cl.Tenants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, tn := range tenants {
		names[tn.Tenant] = true
	}
	if !names["tenant-0"] || !names["tenant-1"] {
		t.Fatalf("merged tenants missing rows: %v", tenants)
	}

	// Readiness: all partitions up -> ready.
	resp, err := http.Get(d.router.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz with all partitions up: HTTP %d", resp.StatusCode)
	}

	// Kill partition 1: aggregate reads stay 200 but say what's missing.
	d.servers[1].Close()
	jobs, err = d.cl.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != perPart[0] {
		t.Fatalf("degraded jobs: got %d, want partition 0's %d", len(jobs), perPart[0])
	}
	// A quota override cannot land everywhere: 503, so the caller retries.
	var ae *client.APIError
	if _, err := testkit.Call[api.TenantStatus](ctx, d.cl, http.MethodPut, "/v1/tenants/tenant-0", api.TenantQuotaRequest{MaxInFlight: 2}); !errors.As(err, &ae) ||
		ae.StatusCode != http.StatusServiceUnavailable || !strings.Contains(ae.Message, "applied partially") {
		t.Fatalf("quota with partition 1 down: %v, want 503 applied partially", err)
	}
	req, _ := http.NewRequest(http.MethodGet, d.router.URL+"/v1/jobs", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded aggregate: HTTP %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get(api.PartitionsDownHeader); got != "1" {
		t.Fatalf("%s = %q, want \"1\"", api.PartitionsDownHeader, got)
	}

	// Readiness flips to 503 and the topology names the dead partition.
	resp, err = http.Get(d.router.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var topo api.PartitionTopology
	if err := json.NewDecoder(resp.Body).Decode(&topo); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with a partition down: HTTP %d, want 503", resp.StatusCode)
	}
	if len(topo.Partitions) != 2 || topo.Partitions[0].Up == false || topo.Partitions[1].Up {
		t.Fatalf("topology after kill: %+v", topo.Partitions)
	}

	// A keyed forward to the dead partition is an explicit 503 (transient
	// for clients), not a hang or a 404.
	var probe string
	for _, j := range append(a, b...) {
		if owner, _ := partition.Owner(j.ID, 2); owner == 1 {
			probe = j.ID
			break
		}
	}
	if probe == "" {
		t.Fatal("no partition-1 job to probe")
	}
	resp, err = http.Get(d.router.URL + "/v1/jobs/" + probe)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("keyed forward to dead partition: HTTP %d, want 503", resp.StatusCode)
	}
}

// TestRouterMetricsConformance: the federated /metrics is one conformant
// exposition — every family declared once, its samples in one group, no
// series twice (metrics.Read refuses anything else) — with one partition
// up, with both, and with none; every partition sample carries its
// partition label first, and a direct scrape of a partition still returns
// the bare names.
func TestRouterMetricsConformance(t *testing.T) {
	var wrapped int
	var down [2]atomic.Bool
	d := newDeploymentBehind(t, 2, func(h http.Handler) http.Handler {
		i := wrapped
		wrapped++
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if down[i].Load() {
				http.Error(w, "down for the test", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	ctx := context.Background()
	for k := 0; k < 6; k++ {
		if _, err := d.cl.SubmitJobIdempotent(ctx, api.SubmitJobRequest{
			Name: "fed", Algorithm: "workqueue", Workload: testWorkload(2),
			Tenant: fmt.Sprintf("tenant-%d", k%2), Weight: 1, SubmissionID: fmt.Sprintf("agg-%d", k),
		}); err != nil {
			t.Fatal(err)
		}
	}
	scrape := func(url string, wantCode int, wantDown string) []metrics.Metric {
		t.Helper()
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode || resp.Header.Get(api.PartitionsDownHeader) != wantDown {
			t.Fatalf("GET %s/metrics: HTTP %d, %s %q; want %d, %q", url, resp.StatusCode,
				api.PartitionsDownHeader, resp.Header.Get(api.PartitionsDownHeader), wantCode, wantDown)
		}
		ms, err := metrics.Read(resp.Body)
		if err != nil {
			t.Fatalf("GET %s/metrics is not a conformant exposition: %v", url, err)
		}
		return ms
	}
	// What each partition says of itself, bare.
	direct := make([][]metrics.Metric, 2)
	for i := range direct {
		direct[i] = scrape(d.servers[i].URL, http.StatusOK, "")
		if v, ok := testkit.Lookup(direct[i], "gridsched_jobs_submitted_total", ""); !ok || v == 0 {
			t.Fatalf("partition %d has no bare gridsched_jobs_submitted_total (or no job): %v, %v", i, v, ok)
		}
	}

	for _, tc := range []struct {
		name     string
		down     [2]bool
		code     int
		downList string
	}{
		{"one up", [2]bool{false, true}, http.StatusOK, "1"},
		{"both up", [2]bool{false, false}, http.StatusOK, ""},
		{"none up", [2]bool{true, true}, http.StatusServiceUnavailable, "0,1"},
	} {
		for i := range down {
			down[i].Store(tc.down[i])
		}
		fed := scrape(d.router.URL, tc.code, tc.downList)
		samples := 0
		for i, isDown := range tc.down {
			part := metrics.Label{Name: "partition", Value: fmt.Sprint(i)}
			want := 1.0
			if isDown {
				want = 0
			}
			if v, ok := testkit.Lookup(fed, "gridsched_partition_up", "", part); !ok || v != want {
				t.Errorf("%s: gridsched_partition_up%v = %v (present %v), want %v", tc.name, part, v, ok, want)
			}
			if isDown {
				continue
			}
			// Everything the partition serves is there under its label.
			for _, m := range direct[i] {
				for _, s := range m.Samples {
					samples++
					if _, ok := testkit.Lookup(fed, m.Name, s.Suffix, append([]metrics.Label{part}, s.Labels...)...); !ok {
						t.Errorf("%s: partition %d's %s%s%v is not in the federation", tc.name, i, m.Name, s.Suffix, s.Labels)
					}
				}
			}
		}
		for _, m := range fed {
			for _, s := range m.Samples {
				samples--
				if len(s.Labels) == 0 || s.Labels[0].Name != "partition" {
					t.Errorf("%s: federated %s%s%v does not lead with a partition label", tc.name, m.Name, s.Suffix, s.Labels)
				}
			}
		}
		if samples != -2 { // the two gridsched_partition_up series are the router's own
			t.Errorf("%s: the federation holds %d samples no live partition serves", tc.name, -2-samples)
		}
	}
}

// TestRouterAggregationForwardsAuth: with -auth-tokens on the partitions
// the router's fan-outs present the caller's bearer token, so aggregated
// reads and the quota fan-out work exactly as they do against one
// gridschedd — and a caller the partitions refuse hears 401/403, not a
// 503 claiming the partitions are down.
func TestRouterAggregationForwardsAuth(t *testing.T) {
	tokens := middleware.NewTokenStore(map[string]middleware.Principal{
		"tok-astro": {Tenant: "astro"},
		"tok-admin": {Admin: true},
	})
	d := newDeploymentBehind(t, 2, func(h http.Handler) http.Handler {
		return middleware.Ingress(middleware.Config{Tokens: tokens, Log: io.Discard}, h)
	})
	ctx := context.Background()
	d.cl.AuthToken = "tok-astro"

	perPart := make([]int, 2)
	for k := 0; k < 6; k++ {
		sid := fmt.Sprintf("auth-%d", k)
		if _, err := d.cl.SubmitJobIdempotent(ctx, api.SubmitJobRequest{
			Name: "auth", Algorithm: "workqueue", Workload: testWorkload(2), SubmissionID: sid,
		}); err != nil {
			t.Fatal(err)
		}
		perPart[partition.SubmitOwner(sid, 2)]++
	}
	if perPart[0] == 0 || perPart[1] == 0 {
		t.Fatalf("submissions all hashed to one partition (%v); pick different ids", perPart)
	}
	if _, err := d.cl.Register(ctx, nil); err != nil {
		t.Fatal(err)
	}

	jobs, err := d.cl.Jobs(ctx)
	if err != nil || len(jobs) != 6 {
		t.Fatalf("aggregated jobs with a tenant token: %d jobs, err %v (want 6)", len(jobs), err)
	}
	workers, err := testkit.Call[[]api.WorkerStatus](ctx, d.cl, http.MethodGet, "/v1/workers", nil)
	if err != nil || len(workers) != 1 {
		t.Fatalf("aggregated workers with a tenant token: %d workers, err %v (want 1)", len(workers), err)
	}
	tenants, err := d.cl.Tenants(ctx)
	if err != nil || len(tenants) != 1 || tenants[0].Tenant != "astro" || tenants[0].RunningJobs != 6 {
		t.Fatalf("aggregated tenants with a tenant token: %+v, err %v", tenants, err)
	}

	// Refusals come back as the partitions gave them.
	wantStatus := func(what string, err error, code int) {
		t.Helper()
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.StatusCode != code {
			t.Fatalf("%s: got %v, want HTTP %d", what, err, code)
		}
	}
	anon := client.New(d.router.URL, nil)
	_, err = anon.Jobs(ctx)
	wantStatus("jobs without a token", err, http.StatusUnauthorized)
	_, err = testkit.Call[[]api.WorkerStatus](ctx, anon, http.MethodGet, "/v1/workers", nil)
	wantStatus("workers without a token", err, http.StatusUnauthorized)
	_, err = anon.Tenants(ctx)
	wantStatus("tenants without a token", err, http.StatusUnauthorized)
	_, err = testkit.Call[api.TenantStatus](ctx, d.cl, http.MethodPut, "/v1/tenants/astro", api.TenantQuotaRequest{MaxInFlight: 3})
	wantStatus("quota with a tenant token", err, http.StatusForbidden)
	admin := client.New(d.router.URL, nil)
	admin.AuthToken = "tok-admin"
	_, err = testkit.Call[api.TenantStatus](ctx, admin, http.MethodPut, "/v1/tenants/astro", api.TenantQuotaRequest{MaxInFlight: -1})
	wantStatus("a negative quota", err, http.StatusBadRequest)
	// A refusal is an answer: the partitions must not have been marked down.
	resp, err := http.Get(d.router.URL + "/v1/partitions")
	if err != nil {
		t.Fatal(err)
	}
	var topo api.PartitionTopology
	if err := json.NewDecoder(resp.Body).Decode(&topo); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, p := range topo.Partitions {
		if !p.Up {
			t.Fatalf("partition %d reported down after refusing a token: %+v", p.Index, p)
		}
	}

	// The admin's quota override lands on every partition.
	st, err := testkit.Call[api.TenantStatus](ctx, admin, http.MethodPut, "/v1/tenants/astro", api.TenantQuotaRequest{MaxInFlight: 3})
	if err != nil || st.MaxInFlight != 3 {
		t.Fatalf("quota with the admin token: %+v, err %v", st, err)
	}
	for i, direct := range d.clients {
		direct.AuthToken = "tok-admin"
		rows, err := direct.Tenants(ctx)
		if err != nil || len(rows) != 1 || rows[0].MaxInFlight != 3 {
			t.Fatalf("partition %d after the quota fan-out: %+v, err %v", i, rows, err)
		}
	}
}

// TestRouterWorkerFlow: a worker registered through the router gets a
// partition-keyed id, and its whole lease lifecycle (pull, heartbeat,
// report) pins to the granting partition through the router, exactly
// once per task.
func TestRouterWorkerFlow(t *testing.T) {
	d := newDeployment(t, 2)
	ctx := context.Background()

	total := 0
	for k := 0; k < 4; k++ {
		if _, err := d.cl.SubmitJobIdempotent(ctx, api.SubmitJobRequest{
			Name: "flow", Algorithm: "workqueue", Workload: testWorkload(5),
			SubmissionID: fmt.Sprintf("flow-%d", k),
		}); err != nil {
			t.Fatal(err)
		}
		total += 5
	}

	// Register enough workers to land on both partitions (round-robin).
	type wrk struct {
		id    string
		owner int
	}
	var workers []wrk
	owners := map[int]bool{}
	for i := 0; i < 4; i++ {
		reg, err := d.cl.Register(ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		owner, ok := partition.Owner(reg.WorkerID, 2)
		if !ok {
			t.Fatalf("worker id %q has no partition key", reg.WorkerID)
		}
		owners[owner] = true
		workers = append(workers, wrk{reg.WorkerID, owner})
	}
	if len(owners) != 2 {
		t.Fatalf("round-robin registration used partitions %v, want both", owners)
	}

	// Drain everything through the router; count completions per task id.
	done := map[string]int{}
	idle := 0
	for completed := 0; completed < total && idle < 200; {
		progressed := false
		for _, w := range workers {
			resp, err := d.cl.Pull(ctx, w.id, 0)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Status != api.StatusAssigned {
				continue
			}
			if owner, _ := partition.Owner(resp.Assignment.ID, 2); owner != w.owner {
				t.Fatalf("assignment %q minted by partition %d granted to worker of partition %d",
					resp.Assignment.ID, owner, w.owner)
			}
			if _, err := testkit.Call[api.HeartbeatResponse](ctx, d.cl, http.MethodPost, "/v1/assignments/"+resp.Assignment.ID+"/heartbeat", api.HeartbeatRequest{WorkerID: w.id}); err != nil {
				t.Fatal(err)
			}
			rep, err := d.cl.Report(ctx, resp.Assignment.ID, w.id, api.OutcomeSuccess)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Accepted {
				done[resp.Assignment.JobID+"/"+fmt.Sprint(resp.Assignment.Task.ID)]++
				completed++
				progressed = true
			}
		}
		if !progressed {
			idle++
		}
	}
	if len(done) != total {
		t.Fatalf("completed %d distinct tasks, want %d", len(done), total)
	}
	for k, n := range done {
		if n != 1 {
			t.Fatalf("task %s completed %d times", k, n)
		}
	}
}

// TestIdleWorkerRebalances: a worker idling on a partition with no open
// jobs moves — deregisters, re-registers through the router's placement —
// to the partition where work is waiting. (The kill -9 gauntlet in
// cmd/gridrouter covers it against real processes; this covers it
// in-process.)
func TestIdleWorkerRebalances(t *testing.T) {
	// An idle worker moves after one lease TTL without open jobs, noticed at
	// its stream's keepalives, one per third of a TTL: keep that well under
	// the test's patience.
	d := newDeploymentWith(t, 2, func(h http.Handler) http.Handler { return h }, 600*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const tasks = 6
	executed := make(chan string, tasks)
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- d.cl.RunWorker(ctx, client.WorkerConfig{
			Execute: func(_ context.Context, _ core.WorkerRef, a *api.Assignment) error {
				executed <- a.JobID
				return nil
			},
		})
	}()

	// Wherever placement put the idle worker, the job goes to the
	// other partition, directly.
	home := -1
	for home < 0 {
		for i, cl := range d.clients {
			if ws, err := testkit.Call[[]api.WorkerStatus](ctx, cl, http.MethodGet, "/v1/workers", nil); err != nil {
				t.Fatal(err)
			} else if len(ws) == 1 {
				home = i
			}
		}
	}
	away := 1 - home
	jobID, err := d.clients[away].SubmitJobIdempotent(ctx, api.SubmitJobRequest{
		Name: "elsewhere", Algorithm: "workqueue", Workload: testWorkload(tasks),
		SubmissionID: keyOwnedBy(away, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tasks; i++ {
		select {
		case got := <-executed:
			if got != jobID {
				t.Fatalf("executed a task of job %q, want %q", got, jobID)
			}
		case err := <-workerDone:
			t.Fatalf("worker ended early: %v", err)
		case <-ctx.Done():
			t.Fatalf("worker on partition %d never reached the job on partition %d (%d of %d tasks ran)", home, away, i, tasks)
		}
	}
	cancel()
	if err := <-workerDone; err != nil {
		t.Fatalf("worker loop: %v", err)
	}
	if ws, err := testkit.Call[[]api.WorkerStatus](context.Background(), d.clients[home], http.MethodGet, "/v1/workers", nil); err != nil || len(ws) != 0 {
		t.Fatalf("partition %d still lists %d workers (err=%v), want the worker gone", home, len(ws), err)
	}
}

// submitCounting is a two-partition deployment that counts the submits each
// partition receives, however they end.
func submitCounting(t *testing.T) (*testDeployment, *[2]atomic.Int64) {
	t.Helper()
	var submits [2]atomic.Int64
	next := 0
	d := newDeploymentBehind(t, 2, func(h http.Handler) http.Handler {
		i := next
		next++
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
				submits[i].Add(1)
			}
			h.ServeHTTP(w, r)
		})
	})
	return d, &submits
}

// post sends body to url with the given headers (name, value, …) and
// returns the status and the ErrorResponse message, if the answer has one.
func post(t *testing.T, url string, body io.Reader, headers ...string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, body)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(headers); i += 2 {
		req.Header.Set(headers[i], headers[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e api.ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&e)
	return resp.StatusCode, e.Error
}

// TestRouterSubmitRoutesByHeader: the router places a submit by its
// X-Gridsched-Submission-Id header and never reads the body — a body that
// is no message at all still reaches the key's owner and gets that
// partition's 400 — and spreads headerless submits over the live partitions.
func TestRouterSubmitRoutesByHeader(t *testing.T) {
	for _, codec := range []api.Codec{api.JSON, api.Binary} {
		mode := map[api.Codec]string{api.JSON: "json", api.Binary: "binary"}[codec]
		t.Run(mode, func(t *testing.T) {
			d, submits := submitCounting(t)
			ctx := context.Background()
			if err := d.cl.SetCodec(mode); err != nil {
				t.Fatal(err)
			}
			submit := func(sid string) (string, error) {
				return d.cl.SubmitJobIdempotent(ctx, api.SubmitJobRequest{
					Name: "routed", Algorithm: "workqueue", Workload: testWorkload(2), SubmissionID: sid,
				})
			}

			for k := 0; k < 6; k++ {
				sid := fmt.Sprintf("%s-%d", mode, k)
				id, err := submit(sid)
				if err != nil {
					t.Fatal(err)
				}
				if got, _ := partition.Owner(id, 2); got != partition.SubmitOwner(sid, 2) {
					t.Fatalf("submission %q: job %q minted by partition %d, the key hashes to %d", sid, id, got, partition.SubmitOwner(sid, 2))
				}
			}

			for owner := 0; owner < 2; owner++ {
				before := [2]int64{submits[0].Load(), submits[1].Load()}
				code, msg := post(t, d.router.URL+"/v1/jobs", strings.NewReader("no message in either codec"),
					"Content-Type", codec.ContentType(), api.SubmissionIDHeader, keyOwnedBy(owner, 2))
				if code != http.StatusBadRequest || !strings.Contains(msg, "bad request body") {
					t.Fatalf("garbage body keyed to partition %d: HTTP %d %q, want the partition's 400", owner, code, msg)
				}
				if submits[owner].Load() != before[owner]+1 || submits[1-owner].Load() != before[1-owner] {
					t.Fatalf("garbage body keyed to partition %d went elsewhere", owner)
				}
			}

			before := [2]int64{submits[0].Load(), submits[1].Load()}
			for k := 0; k < 4; k++ {
				if _, err := submit(""); err != nil {
					t.Fatal(err)
				}
			}
			if a, b := submits[0].Load()-before[0], submits[1].Load()-before[1]; a != 2 || b != 2 {
				t.Fatalf("4 headerless submits went %d and %d to the two partitions, want 2 and 2", a, b)
			}

			// With partition 1 dead, the one headerless submit that finds it
			// out is a 503; every other goes to partition 0.
			d.servers[1].Close()
			refused := 0
			for k := 0; k < 4; k++ {
				id, err := submit("")
				if err != nil {
					refused++
				} else if got, _ := partition.Owner(id, 2); got != 0 {
					t.Fatalf("job %q minted by dead partition %d", id, got)
				}
			}
			if refused > 1 {
				t.Fatalf("%d of 4 headerless submits refused with one partition live, want at most 1", refused)
			}
		})
	}
}

// TestOversizeBodyIs413: a body past the service's 64 MB cap is a 413 from
// the partition itself, whichever codec it claims to be in, and the same
// through the router, which streams it rather than measuring it.
func TestOversizeBodyIs413(t *testing.T) {
	d := newDeployment(t, 2)
	for _, codec := range []api.Codec{api.JSON, api.Binary} {
		// A name that never ends: the limit, not the decoder, stops the read.
		head := []byte(`{"name":"`)
		if codec == api.Binary {
			head = []byte{'G', 3, 1, 0xff, 0xff, 0xff, 0x7f}
		}
		for _, via := range []struct{ name, url string }{{"direct", d.servers[0].URL}, {"routed", d.router.URL}} {
			body := io.MultiReader(bytes.NewReader(head), io.LimitReader(filler{}, 65<<20))
			code, msg := post(t, via.url+"/v1/jobs", body, "Content-Type", codec.ContentType())
			if code != http.StatusRequestEntityTooLarge || !strings.Contains(msg, "exceeds") {
				t.Errorf("%s, %s: HTTP %d %q, want 413", codec.ContentType(), via.name, code, msg)
			}
		}
	}
}

// TestRouterAnswersExpectItself: a client's Expect: 100-continue (curl sends
// it with any large body) ends at the router. A partition that saw it would,
// on answering before the end of the body — the 413 above — drop the
// connection without lingering, and the router would report the reset, not
// the answer.
func TestRouterAnswersExpectItself(t *testing.T) {
	var expects atomic.Int64
	d := newDeploymentBehind(t, 2, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get("Expect") != "" {
				expects.Add(1)
			}
			h.ServeHTTP(w, r)
		})
	})
	body, err := json.Marshal(api.SubmitJobRequest{Name: "expect", Algorithm: "workqueue", Workload: testWorkload(2)})
	if err != nil {
		t.Fatal(err)
	}
	if code, msg := post(t, d.router.URL+"/v1/jobs", bytes.NewReader(body), "Expect", "100-continue"); code != http.StatusCreated {
		t.Fatalf("submit expecting 100-continue: HTTP %d %q", code, msg)
	}
	if n := expects.Load(); n != 0 {
		t.Fatalf("the router passed Expect on to a partition %d times", n)
	}
}

// filler reads as an endless run of 'a'.
type filler struct{}

func (filler) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'a'
	}
	return len(p), nil
}
