package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gridsched/internal/core"
	"gridsched/internal/partition"
	"gridsched/internal/service/api"
	"gridsched/internal/service/client"
	"gridsched/internal/testkit"
)

// submissionFor finds an idempotency key hashing to the wanted partition,
// so the gauntlet can plant one job on each side deterministically.
func submissionFor(want, count int) string {
	for i := 0; ; i++ {
		sid := fmt.Sprintf("gauntlet-%d-%d", want, i)
		if partition.SubmitOwner(sid, count) == want {
			return sid
		}
	}
}

// TestPartitionGauntletKill9 is the scale-out acceptance gauntlet: two
// real gridschedd partitions behind a live gridrouter serve a worker
// fleet; partition 1 is SIGKILLed mid-traffic. The surviving partition
// must keep dispatching throughout the outage, the restarted partition
// must recover its job from the journal, and the sweep must end with
// every task of both jobs completed exactly once — no lost acked
// submissions, no duplicated completions. CI runs this under -race as
// the partition-gauntlet job.
func TestPartitionGauntletKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess gauntlet skipped in -short")
	}
	const (
		parts   = 2
		tasks   = 500 // per job, one job per partition
		workers = 6
	)

	bin := filepath.Join(t.TempDir(), "gridschedd")
	build := exec.Command("go", "build", "-o", bin, "gridsched/cmd/gridschedd")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build gridschedd: %v\n%s", err, out)
	}

	// Registered before any child is started, so it runs after every
	// child's own cleanup: nothing this test started may outlive it.
	var children []*testkit.Daemon
	t.Cleanup(func() {
		for _, d := range children {
			if d.Alive() {
				t.Errorf("gridschedd pid %d (%v) is still running after the test", d.Cmd.Process.Pid, d.Cmd.Args[1:])
			}
		}
	})
	start := func(args []string) *testkit.Daemon {
		d := testkit.StartDaemon(t, bin, args...)
		children = append(children, d)
		return d
	}

	// Reserve ports: partitions re-bind theirs across restarts.
	addrs := make([]string, parts)
	daemons := make([]*testkit.Daemon, parts)
	partArgs := make([][]string, parts)
	for i := 0; i < parts; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
		partArgs[i] = []string{
			"-addr", addrs[i],
			"-sites", "2", "-workers", "4", "-capacity", "200",
			"-lease", "2s",
			"-data-dir", t.TempDir(), "-fsync", "batch", "-snapshot-every", "500",
			"-partition-index", fmt.Sprint(i), "-partition-count", fmt.Sprint(parts),
		}
		daemons[i] = start(partArgs[i])
		testkit.WaitHealthy(t, client.New("http://"+addrs[i], nil))
	}

	// The router runs in-process (it is the unit under test here).
	rctx, rcancel := context.WithCancel(context.Background())
	defer rcancel()
	ready := make(chan string, 1)
	routerErr := make(chan error, 1)
	go func() {
		routerErr <- run(rctx, []string{
			"-addr", "127.0.0.1:0",
			"-partitions", "http://" + addrs[0] + ",http://" + addrs[1],
		}, func(a string) { ready <- a })
	}()
	var routerAddr string
	select {
	case routerAddr = <-ready:
	case err := <-routerErr:
		t.Fatalf("router exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("router never became ready")
	}
	cl := client.New("http://"+routerAddr, nil)
	testkit.WaitHealthy(t, cl)

	// One job per partition, planted by idempotency key.
	ctx, cancelWorkers := context.WithCancel(context.Background())
	defer cancelWorkers()
	jobIDs := make([]string, parts)
	for i := 0; i < parts; i++ {
		id, err := cl.SubmitJobIdempotent(ctx, api.SubmitJobRequest{
			Name: fmt.Sprintf("gauntlet-%d", i), Algorithm: "combined.2", Seed: 11,
			Workload:     testkit.GauntletWorkload(tasks, 4),
			SubmissionID: submissionFor(i, parts),
		})
		if err != nil {
			t.Fatal(err)
		}
		if owner, _ := partition.Owner(id, parts); owner != i {
			t.Fatalf("job %q landed on partition %d, want %d", id, owner, i)
		}
		jobIDs[i] = id
	}

	// Worker fleet through the router: survives the outage via
	// ReconnectWait (the router answers 503 for a dead partition, which
	// is transient to the worker loop).
	var ackMu sync.Mutex
	acks := make(map[string]int) // jobID/taskID -> acked completions
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		site := i % 2
		go func() {
			defer wg.Done()
			_ = cl.RunWorker(ctx, client.WorkerConfig{
				Site:          &site,
				ReconnectWait: 100 * time.Millisecond,
				Execute: func(execCtx context.Context, ref core.WorkerRef, a *api.Assignment) error {
					select {
					case <-execCtx.Done():
					case <-time.After(10 * time.Millisecond):
					}
					return nil
				},
				OnReport: func(_ context.Context, a *api.Assignment, outcome string, rep *api.ReportResponse) bool {
					if outcome == api.OutcomeSuccess && rep.Accepted && !rep.Stale && !rep.Cancelled {
						ackMu.Lock()
						acks[a.JobID+"/"+fmt.Sprint(a.Task.ID)]++
						ackMu.Unlock()
					}
					return false
				},
			})
		}()
	}

	// Let traffic flow, then SIGKILL partition 1 mid-dispatch.
	time.Sleep(600 * time.Millisecond)
	daemons[1].Kill9(t)

	// The surviving partition keeps dispatching during the outage: its
	// job's completion count must keep rising while partition 1 is down.
	st0, err := jobStatus(cl, jobIDs[0])
	if err != nil {
		t.Fatalf("surviving partition's job unreadable during outage: %v", err)
	}
	progressed := st0.State == api.JobCompleted
	deadline := time.Now().Add(20 * time.Second)
	for !progressed && time.Now().Before(deadline) {
		time.Sleep(200 * time.Millisecond)
		st, err := jobStatus(cl, jobIDs[0])
		if err != nil {
			t.Fatalf("surviving partition's job unreadable during outage: %v", err)
		}
		progressed = st.State == api.JobCompleted || st.Completed > st0.Completed
	}
	if !progressed {
		t.Fatalf("partition 0 made no progress while partition 1 was down (stuck at %d/%d)", st0.Completed, st0.Tasks)
	}
	// And partition 1's job is explicitly unavailable, not silently gone.
	if _, err := jobStatusNoRetry(cl, jobIDs[1]); err == nil {
		t.Fatal("dead partition's job answered during the outage")
	}

	// Restart partition 1: journal replay must bring its job back.
	daemons[1] = start(partArgs[1])
	testkit.WaitHealthy(t, client.New("http://"+addrs[1], nil))
	st1, err := jobStatus(cl, jobIDs[1])
	if err != nil {
		t.Fatalf("restarted partition lost its job: %v\npartition output:\n%s", err, daemons[1].Stderr.String())
	}
	t.Logf("after restart: job1 %d/%d completed, %d dispatched", st1.Completed, st1.Tasks, st1.Dispatched)

	// Drain both jobs to completion.
	finish := time.Now().Add(3 * time.Minute)
	finals := make([]*api.JobStatus, parts)
	for i, id := range jobIDs {
		for {
			if time.Now().After(finish) {
				t.Fatalf("job %d never completed; last %+v", i, finals[i])
			}
			st, err := jobStatus(cl, id)
			if err == nil {
				finals[i] = st
				if st.State == api.JobCompleted {
					break
				}
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	cancelWorkers()
	wg.Wait()

	// Zero lost acked submissions, exactly-once completions.
	for i, st := range finals {
		if st.Completed != tasks {
			t.Fatalf("job %d completed with %d/%d (loss or duplication): %+v", i, st.Completed, tasks, st)
		}
	}
	ackMu.Lock()
	defer ackMu.Unlock()
	for key, n := range acks {
		if n > 1 {
			t.Errorf("task %s acknowledged complete %d times", key, n)
		}
	}
	if len(acks) == 0 {
		t.Fatal("no completions acknowledged at all; harness broken")
	}
}

// jobStatus rides out up to 15s of a restarted partition's recovery
// replay, 2s a read.
func jobStatus(cl *client.Client, jobID string) (*api.JobStatus, error) {
	return testkit.JobStatus(cl, jobID, 15*time.Second, 2*time.Second)
}

func jobStatusNoRetry(cl *client.Client, jobID string) (*api.JobStatus, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return cl.Job(ctx, jobID)
}
