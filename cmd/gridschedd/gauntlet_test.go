package main

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"gridsched/internal/core"
	"gridsched/internal/service/api"
	"gridsched/internal/service/client"
	"gridsched/internal/workload"
)

// daemon is one gridschedd subprocess under test.
type daemon struct {
	cmd      *exec.Cmd
	stderr   bytes.Buffer
	waitCh   chan error
	waitOnce sync.Once
	waitErr  error
}

// wait reaps the process exactly once; safe to call repeatedly (kill9
// followed by the cleanup's stop).
func (d *daemon) wait() error {
	d.waitOnce.Do(func() { d.waitErr = <-d.waitCh })
	return d.waitErr
}

// startDaemon starts one gridschedd. Every child started here — a restart
// like the first start — is killed and reaped when the test ends, whichever
// way it ends: the caller has nothing to defer and nothing to forget. The
// check that the pid is really gone is registered before the kill, so it
// runs after it; by the time the last cleanup returns every pid this test
// started has been seen dead.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	d := &daemon{waitCh: make(chan error, 1)}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout = &d.stderr
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { d.waitCh <- d.cmd.Wait() }()
	t.Cleanup(func() {
		if syscall.Kill(d.cmd.Process.Pid, 0) == nil {
			t.Errorf("gridschedd pid %d (%v) is still running after the test", d.cmd.Process.Pid, d.cmd.Args[1:])
		}
	})
	t.Cleanup(d.stop)
	return d
}

// kill9 SIGKILLs the daemon — no shutdown snapshot, no journal sync, the
// exact failure mode the journal exists for. Fails the test if the daemon
// already died on its own (a panic, say).
func (d *daemon) kill9(t *testing.T) {
	t.Helper()
	select {
	case err := <-d.waitCh:
		t.Fatalf("daemon died before the kill (%v):\n%s", err, d.stderr.String())
	default:
	}
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = d.wait()
}

func (d *daemon) stop() {
	_ = d.cmd.Process.Kill()
	_ = d.wait()
}

func waitHealthy(t *testing.T, cl *client.Client) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := cl.Health(ctx)
		cancel()
		if err == nil {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatal("daemon never became healthy")
}

// gauntletWorkload builds tasks tasks of filesPer files with wrapping file
// ids (neighbors share inputs).
func gauntletWorkload(tasks, filesPer int) *workload.Workload {
	numFiles := tasks*filesPer/2 + filesPer
	w := &workload.Workload{Name: "gauntlet", NumFiles: numFiles}
	for i := 0; i < tasks; i++ {
		task := workload.Task{ID: workload.TaskID(i)}
		for f := 0; f < filesPer; f++ {
			task.Files = append(task.Files, workload.FileID((i*filesPer/2+f)%numFiles))
		}
		w.Tasks = append(w.Tasks, task)
	}
	return w
}

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
	d := startDaemon(t, bin, args...)
	waitHealthy(t, cl)

	ctx, cancelWorkers := context.WithCancel(context.Background())
	defer cancelWorkers()
	jobID, err := cl.SubmitJob(ctx, "gauntlet", "combined.2", 11, gauntletWorkload(tasks, 4))
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
		d.kill9(t)
		d = startDaemon(t, bin, args...)
		waitHealthy(t, cl)
		st, err = jobStatus(cl, jobID)
		if err != nil {
			t.Fatalf("after restart %d, job lost: %v\ndaemon output:\n%s", crash, err, d.stderr.String())
		}
		t.Logf("restart %d: %d/%d completed, %d dispatched, %d expired",
			crash+1, st.Completed, st.Tasks, st.Dispatched, st.Expired)
	}

	// Drain to completion.
	deadline := time.Now().Add(3 * time.Minute)
	var final *api.JobStatus
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job never completed; last status %+v\ndaemon output:\n%s", final, d.stderr.String())
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

// jobStatus reads one job's status, riding out the recovery-replay
// window after a restart: /healthz answers while the WAL is still
// replaying, so a read racing the replay legitimately gets a 503 until
// /readyz flips.
func jobStatus(cl *client.Client, jobID string) (*api.JobStatus, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		js, err := cl.Job(ctx, jobID)
		cancel()
		var ae *client.APIError
		if err != nil && errors.As(err, &ae) &&
			ae.StatusCode == http.StatusServiceUnavailable && time.Now().Before(deadline) {
			time.Sleep(25 * time.Millisecond)
			continue
		}
		return js, err
	}
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
			if _, err := cl.SubmitJob(ctx, "persist", "rest", 0, gauntletWorkload(10, 3)); err != nil {
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
