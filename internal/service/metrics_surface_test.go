package service_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"gridsched"
	"gridsched/internal/journal"
	"gridsched/internal/metrics"
	"gridsched/internal/middleware"
	"gridsched/internal/partition"
	"gridsched/internal/service"
	"gridsched/internal/service/api"
	"gridsched/internal/service/client"
	"gridsched/internal/testkit"
)

// metricsScrapes is what the scripted scenario leaves at each /metrics
// surface this package serves.
type metricsScrapes struct {
	leader   string // partition 0 of 2, its bare handler
	ingress  string // the same leader behind middleware.Ingress
	follower string // a standby that caught up by snapshot, then frames
	router   string // gridrouter over that leader and a partition 1 that is down
}

// scrapeBody is one GET /metrics of h.
func scrapeBody(t *testing.T, h http.Handler) string {
	t.Helper()
	return string(getBody(t, h, "/metrics"))
}

// runMetricsScenario drives one durable, partitioned leader through every
// kind of event its /metrics counts — submit, grant, heartbeat, success,
// failure, a job completing, quota throttle, snapshot, lease and worker
// expiry, a stale report, an auth failure, an auth denial, a shed — on a
// fake clock shared by the service and the ingress chain, so every series
// that is not a wall-clock measurement has one value. Every request costs
// two virtual milliseconds, which is what the shedder sees.
func runMetricsScenario(t *testing.T) metricsScrapes {
	clk := &policyClock{base: time.Unix(1_700_000_000, 0)}
	cfg := service.Config{
		Topology:       service.Topology{Sites: 2, WorkersPerSite: 2, CapacityFiles: 100},
		NewScheduler:   gridsched.SchedulerFactory(),
		LeaseTTL:       time.Hour,
		SweepInterval:  24 * time.Hour,
		Clock:          clk.now,
		PartitionIndex: 0,
		PartitionCount: 2,
		DataDir:        t.TempDir(),
		Fsync:          journal.SyncBatch,
		SnapshotEvery:  1 << 20,
	}
	svc := newService(t, cfg)
	inner := svc.Handler()
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !middleware.Exempt(r.URL.Path) {
			clk.ms.Add(2)
		}
		inner.ServeHTTP(w, r)
	})
	chain := middleware.Ingress(middleware.Config{
		Counters: metrics.NewIngressCounters(),
		Log:      io.Discard,
		Tokens: middleware.NewTokenStore(map[string]middleware.Principal{
			"gold-token":   {Tenant: "gold"},
			"bronze-token": {Tenant: "bronze"},
			"admin-token":  {Tenant: "ops", Admin: true},
		}),
		ShedP99:        time.Millisecond,
		ShedMinSamples: 4,
		ShedEvalEvery:  time.Hour,
		TenantWeight:   svc.TenantWeight,
		Now:            clk.now,
	}, slow)
	front := httptest.NewServer(chain)
	t.Cleanup(front.Close)
	bare := httptest.NewServer(inner) // the standby's way in, past the tokens
	t.Cleanup(bare.Close)

	ctx := context.Background()
	as := func(token string) *client.Client {
		cl := testkit.WireCodec(t, client.New(front.URL, nil))
		cl.AuthToken = token
		return cl
	}
	gold, bronze, admin := as("gold-token"), as("bronze-token"), as("admin-token")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	wantStatus := func(err error, code int) {
		t.Helper()
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.StatusCode != code {
			t.Fatalf("got %v, want HTTP %d", err, code)
		}
	}

	// One 401, one 403.
	_, err := as("").Jobs(ctx)
	wantStatus(err, http.StatusUnauthorized)
	_, err = testkit.Call[api.TenantStatus](ctx, gold, http.MethodPut, "/v1/tenants/gold", api.TenantQuotaRequest{MaxInFlight: 1})
	wantStatus(err, http.StatusForbidden)

	// Three jobs, two tenants, two algorithms; the one-task job completes.
	// Keyed, as the Go client always submits, with keys this partition owns
	// (it refuses any other) and of the 32 characters the client's own have:
	// the journal byte counts the scrapes are compared on include them.
	keys := 0
	submit := func(cl *client.Client, req api.SubmitJobRequest) {
		t.Helper()
		for req.SubmissionID == "" || partition.SubmitOwner(req.SubmissionID, cfg.PartitionCount) != cfg.PartitionIndex {
			keys++
			req.SubmissionID = fmt.Sprintf("%032d", keys)
		}
		_, err := cl.SubmitJobIdempotent(ctx, req)
		must(err)
	}
	submit(gold, api.SubmitJobRequest{Tenant: "gold", Weight: 4, Name: "gold-load", Algorithm: "workqueue", Workload: syntheticWorkload(20, 2)})
	submit(bronze, api.SubmitJobRequest{Tenant: "bronze", Weight: 1, Name: "bronze-load", Algorithm: "combined.2", Seed: 7, Workload: syntheticWorkload(20, 2)})
	submit(gold, api.SubmitJobRequest{Tenant: "gold", Weight: 4, Name: "gold-one", Algorithm: "workqueue", Workload: syntheticWorkload(1, 1)})

	type worker struct {
		cl   *client.Client
		id   string
		held *api.Assignment
	}
	enlist := func(cl *client.Client, site int) *worker {
		t.Helper()
		reg, err := cl.Register(ctx, &site)
		must(err)
		return &worker{cl: cl, id: reg.WorkerID}
	}
	pull := func(w *worker) *api.Assignment {
		t.Helper()
		resp, err := w.cl.Pull(ctx, w.id, 0)
		must(err)
		w.held = resp.Assignment
		return w.held
	}
	report := func(w *worker, outcome string) *api.ReportResponse {
		t.Helper()
		resp, err := w.cl.Report(ctx, w.held.ID, w.id, outcome)
		must(err)
		return resp
	}
	w1, w2, w3 := enlist(gold, 0), enlist(gold, 1), enlist(bronze, 0)

	// Grants, a heartbeat, successes and a failure, each task taking a few
	// virtual milliseconds, until the one-task job is done.
	for i := 0; i < 12; i++ {
		w := []*worker{w1, w2, w3}[i%3]
		if pull(w) == nil {
			t.Fatalf("pull %d: nothing granted", i)
		}
		clk.ms.Add(int64(40 + 10*i))
		if i == 1 {
			_, err := testkit.Call[api.HeartbeatResponse](ctx, w.cl, http.MethodPost, "/v1/assignments/"+w.held.ID+"/heartbeat", api.HeartbeatRequest{WorkerID: w.id})
			must(err)
		}
		outcome := api.OutcomeSuccess
		if i == 4 {
			outcome = api.OutcomeFailure
		}
		if resp := report(w, outcome); !resp.Accepted {
			t.Fatalf("report %d refused: %+v", i, resp)
		}
	}

	// Quota throttle: one lease per tenant, then a third worker finds both
	// tenants at their cap.
	_, err = testkit.Call[api.TenantStatus](ctx, admin, http.MethodPut, "/v1/tenants/gold", api.TenantQuotaRequest{MaxInFlight: 1})
	must(err)
	_, err = testkit.Call[api.TenantStatus](ctx, admin, http.MethodPut, "/v1/tenants/bronze", api.TenantQuotaRequest{MaxInFlight: 1})
	must(err)
	if pull(w1) == nil || pull(w2) == nil {
		t.Fatal("a tenant under its quota was refused a lease")
	}
	if a := pull(w3); a != nil {
		t.Fatalf("both tenants at quota, yet %s was granted", a.ID)
	}

	// Checkpoint, then a standby that has to catch up from it.
	must(svc.SnapshotForTest())
	fl, err := service.NewFollower(service.Config{
		Topology:       cfg.Topology,
		NewScheduler:   cfg.NewScheduler,
		PartitionIndex: cfg.PartitionIndex,
		PartitionCount: cfg.PartitionCount,
		DataDir:        t.TempDir(),
		Fsync:          journal.SyncBatch,
		SnapshotEvery:  cfg.SnapshotEvery,
	}, service.FollowerConfig{Leader: bare.URL})
	must(err)
	t.Cleanup(fl.Close)

	// Two hours pass: both leases and all three registrations expire, and
	// the shedder's next evaluation is due. The report that arrives after
	// is stale.
	clk.ms.Add(2 * time.Hour.Milliseconds())
	svc.SweepForTest()
	// The first request after the jump is the one that evaluates: p99 2 ms
	// against a 1 ms bound, level 1, and the only weight class seen within
	// the last minute is its own. It is bronze's (weight 1), so bronze is
	// refused from here on and gold (weight 4) still served.
	_, err = bronze.Jobs(ctx)
	must(err)
	if resp := report(w1, api.OutcomeSuccess); resp.Accepted || !resp.Stale {
		t.Fatalf("report after expiry: %+v, want stale", resp)
	}
	_, err = bronze.Register(ctx, nil)
	must(err) // a registration is not sheddable
	_, err = bronze.Pull(ctx, w3.id, 0)
	wantStatus(err, http.StatusTooManyRequests)
	w4 := enlist(gold, 1)
	if pull(w4) == nil {
		t.Fatal("gold pull under level-1 shedding: nothing granted")
	}

	waitCaughtUp(t, fl, svc)
	rt, err := partition.New(partition.Config{Partitions: []string{bare.URL, "http://127.0.0.1:1"}})
	must(err)
	return metricsScrapes{
		leader:   scrapeBody(t, inner),
		ingress:  scrapeBody(t, chain),
		follower: scrapeBody(t, fl.Handler()),
		router:   scrapeBody(t, rt.Handler()),
	}
}

// wallClockFamilies are measured on the wall clock (or counted by a timer),
// so the scenario pins that their series exist, not what they read.
var wallClockFamilies = []string{
	"gridsched_dispatch_latency_seconds_sum",
	"gridsched_dispatch_latency_max_seconds",
	"gridsched_snapshot_pause_ms",
	"gridsched_snapshot_pause_seconds_total",
	"gridsched_replay_seconds",
	"gridsched_replay_phase_seconds",
	"gridsched_journal_fsyncs_total",
	"gridsched_replication_reconnects_total",
}

// sampleSet reduces an exposition body to its sample lines, sorted, with
// the value of every wall-clock series replaced by "*".
func sampleSet(body string) []string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		for _, fam := range wallClockFamilies {
			if rest, ok := strings.CutPrefix(line, fam); ok && (rest[0] == ' ' || rest[0] == '{') {
				line = line[:strings.LastIndexByte(line, ' ')] + " *"
			}
		}
		out = append(out, line)
	}
	sort.Strings(out)
	return out
}

const followerMarker = "# follower\n"

// diskV3Bytes restates the golden's byte totals for disk format 3: the binary
// that recorded it wrote the scenario's journal records and manifest in disk
// format 2, whose encodings have other lengths. Every other line holds as
// recorded.
var diskV3Bytes = strings.NewReplacer(
	"gridsched_journal_bytes_total 1886\n", "gridsched_journal_bytes_total 1458\n", // leader
	"gridsched_snapshot_bytes 2093\n", "gridsched_snapshot_bytes 1058\n", // leader
	"gridsched_journal_bytes_total 129\n", "gridsched_journal_bytes_total 92\n", // follower
)

// retiredSeries drops from the golden the series the PR 17 binary emitted
// that were deleted on purpose since: gridsched_shards, the job-state lock
// stripe count, went with the stripes.
var retiredSeries = strings.NewReplacer("gridsched_shards 4\n", "")

// TestMetricsSeriesPreserved holds the leader's (behind its ingress chain)
// and the standby's /metrics to what the PR 17 binary emitted after the same
// scenario: the same series with the same values, as a set, the byte totals
// as diskV3Bytes restates them, less retiredSeries.
// testdata/metrics-pr17.txt is that binary's two bodies, sample lines only.
func TestMetricsSeriesPreserved(t *testing.T) {
	golden, err := os.ReadFile("testdata/metrics-pr17.txt")
	if err != nil {
		t.Fatal(err)
	}
	wantLeader, wantFollower, ok := strings.Cut(retiredSeries.Replace(diskV3Bytes.Replace(string(golden))), followerMarker)
	if !ok {
		t.Fatalf("testdata/metrics-pr17.txt has no %q line", followerMarker)
	}
	got := runMetricsScenario(t)
	for _, c := range []struct{ role, got, want string }{
		{"leader", got.ingress, wantLeader},
		{"follower", got.follower, wantFollower},
	} {
		gotSet, wantSet := sampleSet(c.got), sampleSet(c.want)
		have := make(map[string]bool, len(gotSet))
		for _, l := range gotSet {
			have[l] = true
		}
		for _, l := range wantSet {
			if !have[l] {
				t.Errorf("%s: PR 17 emitted %q, this binary does not", c.role, l)
			}
			delete(have, l)
		}
		for _, l := range gotSet {
			if have[l] {
				t.Errorf("%s: %q is new since PR 17", c.role, l)
			}
		}
	}
}

// readSurface is one surface's body through the strict reader: a body with
// a family declared twice or split, a series served twice, or a sample
// outside its family's "# TYPE" fails the test here.
func readSurface(t *testing.T, surface, body string) []metrics.Metric {
	t.Helper()
	ms, err := metrics.Read(strings.NewReader(body))
	if err != nil {
		t.Fatalf("%s /metrics is not a conformant exposition: %v\n%s", surface, err, body)
	}
	return ms
}

// TestMetricsConformance reads the leader's, the chain's and the standby's
// /metrics strictly, the leader holding several jobs, tenants and observed
// worker slots — the series the hand-written emitters interleaved.
// (internal/partition has the router's, one partition up and both.)
func TestMetricsConformance(t *testing.T) {
	got := runMetricsScenario(t)
	leader := readSurface(t, "leader", got.leader)
	for _, fam := range []string{"gridsched_job_remaining", "gridsched_tenant_weight", "gridsched_worker_samples"} {
		for _, m := range leader {
			if m.Name == fam && len(m.Samples) < 2 {
				t.Errorf("the scenario left %s only %d series", fam, len(m.Samples))
			}
		}
		if _, ok := testkit.Lookup(leader, fam, ""); ok {
			t.Errorf("%s has an unlabelled series", fam)
		}
	}
	// The chain writes after the service: its families must follow every one
	// of the service's, each still one group.
	behind := readSurface(t, "leader behind its ingress chain", got.ingress)
	if len(behind) <= len(leader) {
		t.Fatalf("the chain added no family: %d behind it, %d bare", len(behind), len(leader))
	}
	for i, m := range behind {
		if isChain := strings.HasPrefix(m.Name, "gridsched_ingress_"); isChain != (i >= len(leader)) {
			t.Errorf("family %d behind the chain is %s", i, m.Name)
		}
	}
	follower := readSurface(t, "follower", got.follower)
	if v, ok := testkit.Lookup(follower, "gridsched_replication_role", "", metrics.Label{Name: "role", Value: "follower"}); !ok || v != 1 {
		t.Errorf("standby's role gauge: %v, %v", v, ok)
	}
}

// documentedFamily is one row of docs/PROTOCOL.md's metrics table.
type documentedFamily struct {
	kind     string
	labels   string   // comma-separated label names, in order
	surfaces []string // of leader, follower, ingress, router
}

// readMetricsTable parses the table between the metrics-table markers of
// docs/PROTOCOL.md: | `family` | type | `label`, … | meaning | surfaces |.
func readMetricsTable(t *testing.T) map[string]documentedFamily {
	t.Helper()
	doc, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "<!-- metrics-table:begin -->")
	table, _, ok2 := strings.Cut(table, "<!-- metrics-table:end -->")
	if !ok || !ok2 {
		t.Fatal("docs/PROTOCOL.md has no metrics-table markers")
	}
	rows := make(map[string]documentedFamily)
	for _, line := range strings.Split(strings.TrimSpace(table), "\n")[2:] { // past the header and its rule
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 5 {
			t.Fatalf("metrics table row has %d cells, want 5: %s", len(cells), line)
		}
		name := strings.Trim(strings.TrimSpace(cells[0]), "`")
		if _, dup := rows[name]; dup {
			t.Errorf("metrics table lists %s twice", name)
		}
		rows[name] = documentedFamily{
			kind:     strings.TrimSpace(cells[1]),
			labels:   strings.ReplaceAll(strings.ReplaceAll(strings.TrimSpace(cells[2]), "`", ""), " ", ""),
			surfaces: strings.Split(strings.ReplaceAll(strings.TrimSpace(cells[4]), " ", ""), ","),
		}
	}
	return rows
}

// TestMetricsTableMatchesSurfaces: docs/PROTOCOL.md's metrics table and the
// four /metrics surfaces agree, in both directions — every family a surface
// serves is listed for that surface with its type and labels, and every
// family listed for a surface is served by it. The ingress chain's families
// are those it adds to the leader's; the router's, those it adds to its
// partitions', whose samples it serves under a leading partition label.
func TestMetricsTableMatchesSurfaces(t *testing.T) {
	documented := readMetricsTable(t)
	got := runMetricsScenario(t)
	leader := readSurface(t, "leader", got.leader)
	own := func(ms []metrics.Metric) []metrics.Metric { // minus what the leader behind it serves
		var out []metrics.Metric
		for _, m := range ms {
			if _, isLeaders := testkit.Lookup(leader, m.Name, m.Samples[0].Suffix, dropPartition(m.Samples[0].Labels)...); !isLeaders {
				out = append(out, m)
			}
		}
		return out
	}
	for surface, served := range map[string][]metrics.Metric{
		"leader":   leader,
		"follower": readSurface(t, "follower", got.follower),
		"ingress":  own(readSurface(t, "leader behind its ingress chain", got.ingress)),
		"router":   own(readSurface(t, "router", got.router)),
	} {
		if len(served) == 0 {
			t.Errorf("%s serves no family of its own", surface)
		}
		seen := make(map[string]bool)
		for _, m := range served {
			seen[m.Name] = true
			row, ok := documented[m.Name]
			if !ok || !slices.Contains(row.surfaces, surface) {
				t.Errorf("%s serves %s, which docs/PROTOCOL.md does not list for it", surface, m.Name)
				continue
			}
			var names []string
			for _, l := range m.Samples[0].Labels {
				names = append(names, l.Name)
			}
			if string(m.Kind) != row.kind || strings.Join(names, ",") != row.labels {
				t.Errorf("%s is a %s with labels %v; docs/PROTOCOL.md says %s, %q", m.Name, m.Kind, names, row.kind, row.labels)
			}
		}
		for name, row := range documented {
			if slices.Contains(row.surfaces, surface) && !seen[name] {
				t.Errorf("docs/PROTOCOL.md lists %s for the %s, which does not serve it", name, surface)
			}
		}
	}
}

// dropPartition is labels without the router's leading partition label.
func dropPartition(labels []metrics.Label) []metrics.Label {
	if len(labels) > 0 && labels[0].Name == "partition" {
		return labels[1:]
	}
	return labels
}
