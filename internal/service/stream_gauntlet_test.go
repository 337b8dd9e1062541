package service_test

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"gridsched/internal/core"
	"gridsched/internal/faultinject"
	"gridsched/internal/service"
	"gridsched/internal/service/api"
	"gridsched/internal/service/client"
	"gridsched/internal/testkit"
)

// TestStreamDropGauntlet is the fault-injection gauntlet for the streaming
// protocol: a journaled service behind a fault-injecting TCP proxy, one
// streaming worker, and a chaos loop severing every connection (stream and
// report batches alike) over and over. The invariants:
//
//   - the job still drains: dropped streams stop lease renewal, the sweep
//     expires and requeues, the worker reconnects and carries on;
//   - completions are exactly-once: retried report batches land Stale,
//     never double-counted, so the Completions counter ends at exactly the
//     task count;
//   - recovery identity: a crash after the chaos recovers, from journal
//     alone, to the same job state the live service reported.
//
// The CI race job runs this under -race, so the stream/report/sweep
// interleavings the chaos produces are also a data-race probe.
func TestStreamDropGauntlet(t *testing.T) {
	const tasks = 120
	dir := t.TempDir()
	cfg := durableConfig(dir)
	// Short TTL so severed streams expire and requeue within test time.
	cfg.LeaseTTL = 400 * time.Millisecond

	a, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(a.Handler())
	defer ts.Close()
	proxy, err := faultinject.NewProxy("127.0.0.1:0", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	cl := testkit.WireCodec(t, client.New("http://"+proxy.Addr(), nil))

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	if _, err := cl.SubmitJob(ctx, "gauntlet", "workqueue", 7, syntheticWorkload(tasks, 3)); err != nil {
		t.Fatal(err)
	}

	// Chaos: sever every proxied connection at a cadence that lets a few
	// tasks through per window, until the worker drains the job.
	chaosDone := make(chan struct{})
	workerDone := make(chan error, 1)
	go func() {
		tick := time.NewTicker(150 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-chaosDone:
				return
			case <-tick.C:
				proxy.CloseConns()
			}
		}
	}()
	go func() {
		workerDone <- cl.RunWorker(ctx, client.WorkerConfig{
			StreamBatch:   8,
			ReconnectWait: 50 * time.Millisecond,
			Execute: func(execCtx context.Context, _ core.WorkerRef, _ *api.Assignment) error {
				select {
				case <-execCtx.Done():
				case <-time.After(2 * time.Millisecond):
				}
				return nil
			},
			OnIdle: func(_ context.Context, openJobs int) (bool, error) {
				return openJobs == 0, nil
			},
		})
	}()

	select {
	case err := <-workerDone:
		close(chaosDone)
		if err != nil {
			t.Fatalf("worker under chaos: %v", err)
		}
	case <-ctx.Done():
		close(chaosDone)
		t.Fatal("worker did not drain the job under chaos")
	}

	jobs := a.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("jobs after gauntlet: %d", len(jobs))
	}
	pre := jobs[0]
	if pre.State != api.JobCompleted || pre.Completed != tasks || pre.Remaining != 0 {
		t.Fatalf("job after gauntlet: %+v", pre)
	}
	if got := a.Counters().Completions.Load(); got != tasks {
		t.Fatalf("completions = %d, want exactly %d (no double-counted batch retries)", got, tasks)
	}

	// Crash and recover: the journal alone must reproduce the job state the
	// live service reported, bit for bit.
	a.CrashForTest()
	b, err := service.New(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery after gauntlet: %v", err)
	}
	defer b.Close()
	recovered := b.Jobs()
	if len(recovered) != 1 {
		t.Fatalf("jobs after recovery: %d", len(recovered))
	}
	if !reflect.DeepEqual(pre, recovered[0]) {
		t.Fatalf("recovery identity broken:\n live %+v\nrecov %+v", pre, recovered[0])
	}
}
