package main

import (
	"context"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gridsched/internal/core"
	"gridsched/internal/service/api"
	"gridsched/internal/service/client"
	"gridsched/internal/testkit"
	"gridsched/internal/workload"
)

// TestRecoveryGauntletKill9 is the acceptance gauntlet: a real gridschedd
// binary serving an 8-worker sweep from a -data-dir is SIGKILLed at
// arbitrary points several times; every restart must recover from the
// journal, the workers reconnect on their own, and the sweep must end with
// every task completed exactly once — no losses, no duplicated
// completions. CI runs this under -race as the recovery-gauntlet job.
func TestRecoveryGauntletKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess gauntlet skipped in -short")
	}
	const (
		tasks   = 1200
		crashes = 5
		workers = 8
	)

	bin := filepath.Join(t.TempDir(), "gridschedd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Reserve a port; the daemon re-binds it on every restart.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	dataDir := t.TempDir()
	args := []string{
		"-addr", addr,
		"-sites", "2", "-workers", "4", "-capacity", "200",
		"-lease", "2s",
		"-data-dir", dataDir, "-fsync", "batch", "-snapshot-every", "500",
	}

	cl := client.New("http://"+addr, nil)
	d := testkit.StartDaemon(t, bin, args...)
	testkit.WaitHealthy(t, cl)

	ctx, cancelWorkers := context.WithCancel(context.Background())
	defer cancelWorkers()
	jobID, err := cl.SubmitJob(ctx, "gauntlet", "combined.2", 11, testkit.GauntletWorkload(tasks, 4))
	if err != nil {
		t.Fatal(err)
	}

	// Worker fleet: survives outages via ReconnectWait, records every
	// completion the server acknowledged.
	var ackMu sync.Mutex
	acks := make(map[workload.TaskID]int)
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
					case <-time.After(15 * time.Millisecond):
					}
					return nil
				},
				OnReport: func(_ context.Context, a *api.Assignment, outcome string, rep *api.ReportResponse) bool {
					if outcome == api.OutcomeSuccess && rep.Accepted && !rep.Stale && !rep.Cancelled {
						ackMu.Lock()
						acks[a.Task.ID]++
						ackMu.Unlock()
					}
					return false
				},
			})
		}()
	}

	rng := rand.New(rand.NewSource(2))
	for crash := 0; crash < crashes; crash++ {
		time.Sleep(time.Duration(250+rng.Intn(300)) * time.Millisecond)
		st, err := jobStatus(cl, jobID)
		if err == nil && st.State == api.JobCompleted {
			t.Logf("job finished before crash %d; gauntlet still validates recovery of the completed state", crash)
		}
		d.Kill9(t)
		d = testkit.StartDaemon(t, bin, args...)
		testkit.WaitHealthy(t, cl)
		st, err = jobStatus(cl, jobID)
		if err != nil {
			t.Fatalf("after restart %d, job lost: %v\ndaemon output:\n%s", crash, err, d.Stderr.String())
		}
		t.Logf("restart %d: %d/%d completed, %d dispatched, %d expired",
			crash+1, st.Completed, st.Tasks, st.Dispatched, st.Expired)
	}

	// Drain to completion.
	deadline := time.Now().Add(3 * time.Minute)
	var final *api.JobStatus
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job never completed; last status %+v\ndaemon output:\n%s", final, d.Stderr.String())
		}
		st, err := jobStatus(cl, jobID)
		if err == nil {
			final = st
			if st.State == api.JobCompleted {
				break
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	cancelWorkers()
	wg.Wait()

	// No losses, no duplicates: the completion counter survived every
	// crash exactly, and no task was ever acknowledged twice.
	if final.Completed != tasks {
		t.Fatalf("job completed with %d/%d completions (loss or duplication)\n%+v", final.Completed, tasks, final)
	}
	ackMu.Lock()
	defer ackMu.Unlock()
	dup := 0
	for id, n := range acks {
		if n > 1 {
			dup++
			t.Errorf("task %d acknowledged complete %d times", id, n)
		}
	}
	if dup == 0 && len(acks) == 0 {
		t.Fatal("no completions acknowledged at all; harness broken")
	}
}

// jobStatus rides out up to 10s of a restarted daemon's recovery replay,
// 1s a read.
func jobStatus(cl *client.Client, jobID string) (*api.JobStatus, error) {
	return testkit.JobStatus(cl, jobID, 10*time.Second, time.Second)
}

// TestDaemonPersistsAcrossCleanRestart covers the flag plumbing end to
// end in-process (no subprocess): a daemon with -data-dir is stopped
// cleanly and restarted; the submitted job must still be there.
func TestDaemonPersistsAcrossCleanRestart(t *testing.T) {
	dataDir := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	args := []string{
		"-addr", addr, "-sites", "2", "-workers", "2", "-capacity", "100",
		"-data-dir", dataDir, "-fsync", "always", "-snapshot-every", "8",
	}

	runOnce := func(submit bool) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ready := make(chan string, 1)
		errCh := make(chan error, 1)
		go func() { errCh <- run(ctx, args, func(a string) { ready <- a }) }()
		select {
		case <-ready:
		case err := <-errCh:
			t.Fatalf("daemon exited early: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("daemon never became ready")
		}
		cl := client.New("http://"+addr, nil)
		if submit {
			if _, err := cl.SubmitJob(ctx, "persist", "rest", 0, testkit.GauntletWorkload(10, 3)); err != nil {
				t.Fatal(err)
			}
		} else {
			jctx, jcancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer jcancel()
			jobs, err := cl.Jobs(jctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(jobs) != 1 || jobs[0].Name != "persist" {
				t.Fatalf("restart lost the job: %+v", jobs)
			}
		}
		cancel()
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatalf("daemon shutdown: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not shut down")
		}
	}
	runOnce(true)
	runOnce(false)
}
