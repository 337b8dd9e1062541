package service_test

import (
	"bytes"
	"context"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"gridsched"
	"gridsched/internal/journal"
	"gridsched/internal/service"
	"gridsched/internal/service/api"
	"gridsched/internal/service/client"
	"gridsched/internal/testkit"
)

// leaseDriver is one way of speaking the worker protocol. The schedule in
// TestPullAndStreamAreOneProtocol is written once against it.
type leaseDriver interface {
	// lease asks for worker k's next assignment, right after it registered
	// or reported; nil means nothing was granted.
	lease(k int) *api.Assignment
	report(k int, outcome string)
	// renew keeps worker k's lease alive after the clock jumped and a
	// submission raised the open-job count to openJobs, and says whether
	// the server flagged the execution cancelled.
	renew(k, openJobs int) bool
	// leave makes worker k go silent with its lease outstanding.
	leave(k int)
}

// protoRun is what both drivers share: the service under a fake clock and
// the workers' registrations and outstanding assignments.
type protoRun struct {
	t       *testing.T
	s       *service.Service
	clk     *policyClock
	workers []string
	held    []*api.Assignment
	// trace is the task leased (-1: none) by every lease call in order: the
	// pull run records it, the stream run is held to it.
	trace []int
}

func (p *protoRun) traceLease(a *api.Assignment) {
	task := -1
	if a != nil {
		task = int(a.Task.ID)
	}
	p.trace = append(p.trace, task)
}

// pullDriver is the long-poll protocol: Pull, Heartbeat, Report.
type pullDriver struct{ *protoRun }

func (d pullDriver) lease(k int) *api.Assignment {
	resp, err := d.s.Pull(nil, d.workers[k], 0)
	if err != nil {
		d.t.Fatalf("pull by worker %d: %v", k, err)
	}
	d.held[k] = resp.Assignment
	d.traceLease(resp.Assignment)
	return resp.Assignment
}

func (d pullDriver) report(k int, outcome string) {
	if _, err := d.s.Report(d.held[k].ID, d.workers[k], outcome); err != nil {
		d.t.Fatalf("report by worker %d: %v", k, err)
	}
}

func (d pullDriver) renew(k, _ int) bool {
	hb, err := d.s.Heartbeat(d.held[k].ID, d.workers[k])
	if err != nil || hb.State == api.HeartbeatGone {
		d.t.Fatalf("heartbeat by worker %d: %+v (err=%v)", k, hb, err)
	}
	return hb.State == api.HeartbeatCancelled
}

func (d pullDriver) leave(int) {}

// streamDriver is the streaming protocol at depth one: a batch=1 lease
// stream per worker and ReportBatch of one. A stream grants on its own as
// soon as its worker has a free place, so lease only collects the grant —
// and, where the pull run got nothing, does not wait for one.
type streamDriver struct {
	*protoRun
	cl      *client.Client
	streams []*client.LeaseStream
	want    []int // the pull run's trace, consumed from the front
}

func (d *streamDriver) lease(k int) *api.Assignment {
	want := d.want[0]
	d.want = d.want[1:]
	if d.streams[k] == nil {
		ls, err := d.cl.StreamLeases(context.Background(), d.workers[k], 1)
		if err != nil {
			d.t.Fatalf("stream of worker %d: %v", k, err)
		}
		d.streams[k] = ls
	}
	d.held[k] = nil
	for want >= 0 && d.held[k] == nil {
		lb, err := d.streams[k].Next()
		if err != nil {
			d.t.Fatalf("stream of worker %d: %v", k, err)
		}
		if len(lb.Assignments) > 0 {
			d.held[k] = &lb.Assignments[0]
		}
	}
	d.traceLease(d.held[k])
	if got := d.trace[len(d.trace)-1]; got != want {
		d.t.Fatalf("lease %d (worker %d): the stream granted task %d where the pull got %d", len(d.trace), k, got, want)
	}
	return d.held[k]
}

func (d *streamDriver) report(k int, outcome string) {
	_, err := d.s.ReportBatch(d.workers[k], []api.ReportItem{{AssignmentID: d.held[k].ID, Outcome: outcome}})
	if err != nil {
		d.t.Fatalf("report by worker %d: %v", k, err)
	}
}

func (d *streamDriver) renew(k, openJobs int) bool {
	cancelled := false
	for {
		lb, err := d.streams[k].Next()
		if err != nil {
			d.t.Fatalf("stream of worker %d: %v", k, err)
		}
		if len(lb.Assignments) > 0 {
			d.t.Fatalf("worker %d was granted a second lease at depth 1: %+v", k, lb.Assignments)
		}
		cancelled = cancelled || slices.Contains(lb.Cancelled, d.held[k].ID)
		if lb.OpenJobs == openJobs {
			return cancelled
		}
	}
}

func (d *streamDriver) leave(k int) {
	d.streams[k].Close()
	// Its session must have ended before the clock moves on, or it would
	// renew the lease once more.
	for d.s.AttachedForTest(d.workers[k]) {
		time.Sleep(time.Millisecond)
	}
}

// TestPullAndStreamAreOneProtocol: the long-poll pull, the heartbeat and
// the single report are the lease stream, its renewal and the batched
// report at depth one — not a second implementation that happens to agree.
// One seeded schedule (two tenants' jobs and later submissions, failures, a
// straggler whose speculative twin wins so that its own execution is
// cancelled, a worker that goes silent until its lease expires) is driven
// once through Pull/Heartbeat/Report and once through batch=1 streams with
// ReportBatch of one, on a fake clock and with every step sequential. Both
// runs must lease the same tasks in the same order, see the same
// cancellation notice, write byte-identical journals and end in the same
// jobs, tenants and per-slot telemetry.
func TestPullAndStreamAreOneProtocol(t *testing.T) {
	const ttl = time.Minute
	type result struct {
		wal       []byte
		jobs      []api.JobStatus
		tenants   []api.TenantStatus
		telemetry []api.WorkerStatus
		trace     []int
		notices   []string
	}
	run := func(t *testing.T, stream bool, pullTrace []int) result {
		dir := t.TempDir()
		clk := &policyClock{base: time.Unix(1_700_000_000, 0)}
		s, err := service.New(service.Config{
			Topology:      service.Topology{Sites: 2, WorkersPerSite: 4, CapacityFiles: 100},
			NewScheduler:  gridsched.SchedulerFactory(),
			LeaseTTL:      ttl,
			SweepInterval: time.Hour, // every sweep is one the schedule runs
			Clock:         clk.now,
			Speculation:   true,
			DataDir:       dir,
			Fsync:         journal.SyncBatch,
			SnapshotEvery: 1 << 20, // the whole history stays in wal.log
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		p := &protoRun{t: t, s: s, clk: clk, held: make([]*api.Assignment, 4)}
		var d leaseDriver = pullDriver{p}
		if stream {
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			sd := &streamDriver{protoRun: p, cl: testkit.WireCodec(t, client.New(ts.URL, nil)), streams: make([]*client.LeaseStream, 4), want: pullTrace}
			defer func() { // before ts.Close, which waits for open responses
				for _, ls := range sd.streams {
					if ls != nil {
						ls.Close()
					}
				}
			}()
			d = sd
		}
		rng := rand.New(rand.NewSource(14))
		advance := func(d time.Duration) { clk.ms.Add(d.Milliseconds()) }
		submit := func(name, tenant string, weight int, algorithm string, tasks int) {
			t.Helper()
			_, err := s.SubmitJob(api.SubmitJobRequest{
				Name: name, Tenant: tenant, Weight: weight, Algorithm: algorithm, Seed: 3,
				Workload: syntheticWorkload(tasks, 3),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		// turn is one worker finishing what it holds and asking for more.
		turn := func(k int, outcome string) {
			advance(time.Duration(10+rng.Intn(20)) * time.Millisecond)
			d.report(k, outcome)
			d.lease(k)
		}
		var notices []string

		submit("alpha-1", "alpha", 2, "workqueue", 10)
		submit("beta-1", "beta", 1, "rest", 10)
		for k := 0; k < 4; k++ {
			reg, err := s.RegisterWorker(k/2, nil)
			if err != nil {
				t.Fatal(err)
			}
			p.workers = append(p.workers, reg.WorkerID)
			if d.lease(k) == nil {
				t.Fatalf("worker %d got nothing with both jobs untouched", k)
			}
		}

		// Worker 0 straggles on its first task while the others churn, with
		// failures, and give both jobs their duration distributions.
		for i := 0; i < 12; i++ {
			outcome := api.OutcomeSuccess
			if rng.Float64() < 0.2 {
				outcome = api.OutcomeFailure
			}
			turn(1+rng.Intn(3), outcome)
		}
		// The sweep queues the straggler's task for a twin; the next worker
		// whose turn reaches that job gets it, and wins.
		advance(2 * time.Second)
		s.SweepForTest()
		straggler, twin := p.held[0], -1
		for i := 0; twin < 0; i++ {
			if i == 6 {
				t.Fatalf("nobody was leased the twin of %+v", straggler)
			}
			k := 1 + i%3
			turn(k, api.OutcomeSuccess)
			if a := p.held[k]; a != nil && a.JobID == straggler.JobID && a.Task.ID == straggler.Task.ID {
				twin = k
			}
		}
		turn(twin, api.OutcomeSuccess)
		// A third of a TTL later the straggler's next renewal tells it so.
		advance(ttl / 3)
		submit("alpha-2", "alpha", 2, "workqueue", 4)
		for k := 0; k < 4; k++ {
			if d.renew(k, 3) {
				notices = append(notices, p.held[k].ID)
			}
		}
		if !slices.Equal(notices, []string{straggler.ID}) {
			t.Fatalf("renewals flagged %v cancelled, want the straggler's %s", notices, straggler.ID)
		}
		turn(0, api.OutcomeFailure)

		// Worker 3 goes silent. The others live through a whole TTL, half at a
		// time, and at the end of it exactly one lease expires. The sweep
		// comes first after each jump: a stream's next turn would run it
		// anyway, a heartbeat would not.
		d.leave(3)
		for open := 4; open <= 5; open++ {
			advance(ttl / 2)
			s.SweepForTest()
			submit("gamma", "gamma", 1, "workqueue", 1)
			for k := 0; k < 3; k++ {
				if d.renew(k, open) {
					notices = append(notices, p.held[k].ID)
				}
			}
		}
		if got := s.Counters().LeasesExpired.Load(); got != 1 {
			t.Fatalf("%d leases expired, want worker 3's alone (%s)", got, p.held[3].ID)
		}

		// Drain. Nothing fails any more, so a worker that is told there is
		// nothing for it stays out of it.
		for busy := true; busy; {
			busy = false
			for k := 0; k < 3; k++ {
				if p.held[k] != nil {
					turn(k, api.OutcomeSuccess)
					busy = true
				}
			}
		}

		wal, err := os.ReadFile(filepath.Join(dir, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			if err := s.Deregister(p.workers[k]); err != nil {
				t.Fatal(err)
			}
		}
		return result{wal, s.Jobs(), s.Tenants(), allSlotsTelemetry(t, s), p.trace, notices}
	}

	pull := run(t, false, nil)
	for _, j := range pull.jobs {
		if j.State != api.JobCompleted {
			t.Fatalf("the schedule left job %s %s: %+v", j.ID, j.State, j)
		}
	}
	stream := run(t, true, pull.trace)
	if !slices.Equal(pull.trace, stream.trace) {
		t.Fatalf("tasks leased:\n  pull %v\nstream %v", pull.trace, stream.trace)
	}
	if !slices.Equal(pull.notices, stream.notices) || len(pull.notices) != 1 {
		t.Fatalf("cancellation notices: pull %v, stream %v, want the straggler's in both", pull.notices, stream.notices)
	}
	if !bytes.Equal(pull.wal, stream.wal) {
		at := 0
		for at < len(pull.wal) && at < len(stream.wal) && pull.wal[at] == stream.wal[at] {
			at++
		}
		from, to := max(at-120, 0), at+120
		t.Fatalf("wal.log differs at byte %d of %d (pull/heartbeat/report) and %d (stream/reports):\n  pull …%q\nstream …%q",
			at, len(pull.wal), len(stream.wal), pull.wal[from:min(to, len(pull.wal))], stream.wal[from:min(to, len(stream.wal))])
	}
	if !reflect.DeepEqual(pull.jobs, stream.jobs) {
		t.Fatalf("jobs:\n  pull %+v\nstream %+v", pull.jobs, stream.jobs)
	}
	if !reflect.DeepEqual(pull.tenants, stream.tenants) {
		t.Fatalf("tenants:\n  pull %+v\nstream %+v", pull.tenants, stream.tenants)
	}
	if !reflect.DeepEqual(pull.telemetry, stream.telemetry) {
		t.Fatalf("slot telemetry:\n  pull %+v\nstream %+v", pull.telemetry, stream.telemetry)
	}
}
