package testkit

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"os/exec"
	"sync"
	"syscall"
	"testing"
	"time"

	"gridsched/internal/service/api"
	"gridsched/internal/service/client"
	"gridsched/internal/workload"
)

// Daemon is one child process under test: a gridschedd, a partition of one.
type Daemon struct {
	Cmd *exec.Cmd
	// Stderr holds the child's output, stdout and stderr interleaved.
	Stderr bytes.Buffer

	waitCh   chan error
	waitOnce sync.Once
	waitErr  error
}

// StartDaemon starts bin with args. Every child started here — a restart
// like the first start — is killed and reaped when the test ends, whichever
// way it ends: the caller has nothing to defer and nothing to forget. The
// check that the pid is really gone is registered before the kill, so it
// runs after it; by the time the last cleanup returns every pid this test
// started has been seen dead.
func StartDaemon(t *testing.T, bin string, args ...string) *Daemon {
	t.Helper()
	d := &Daemon{waitCh: make(chan error, 1)}
	d.Cmd = exec.Command(bin, args...)
	d.Cmd.Stdout = &d.Stderr
	d.Cmd.Stderr = &d.Stderr
	if err := d.Cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { d.waitCh <- d.Cmd.Wait() }()
	t.Cleanup(func() {
		if d.Alive() {
			t.Errorf("pid %d (%v) is still running after the test", d.Cmd.Process.Pid, d.Cmd.Args)
		}
	})
	t.Cleanup(d.Stop)
	return d
}

// Alive reports whether the daemon's process still exists.
func (d *Daemon) Alive() bool {
	return syscall.Kill(d.Cmd.Process.Pid, 0) == nil
}

// Kill9 SIGKILLs the daemon — no shutdown snapshot, no journal sync, the
// exact failure mode the journal exists for. Fails the test if the daemon
// already died on its own (a panic, say).
func (d *Daemon) Kill9(t *testing.T) {
	t.Helper()
	select {
	case err := <-d.waitCh:
		t.Fatalf("%v died before the kill (%v):\n%s", d.Cmd.Args, err, d.Stderr.String())
	default:
	}
	if err := d.Cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = d.wait()
}

// Stop kills the daemon, if it still runs, and reaps it.
func (d *Daemon) Stop() {
	_ = d.Cmd.Process.Kill()
	_ = d.wait()
}

// wait reaps the process exactly once; safe to call repeatedly (Kill9
// followed by the cleanup's Stop).
func (d *Daemon) wait() error {
	d.waitOnce.Do(func() { d.waitErr = <-d.waitCh })
	return d.waitErr
}

// WaitHealthy waits up to 20s for cl's endpoint to answer /healthz.
func WaitHealthy(t *testing.T, cl *client.Client) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := Call[api.Health](ctx, cl, http.MethodGet, "/healthz", nil)
		cancel()
		if err == nil {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("%s never became healthy", cl.Endpoint())
}

// GauntletWorkload builds tasks tasks of filesPer files with wrapping file
// ids (neighbors share inputs).
func GauntletWorkload(tasks, filesPer int) *workload.Workload {
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

// JobStatus reads one job's status, riding out the recovery-replay window
// after a restart: /healthz answers while the WAL is still replaying, so a
// read racing the replay legitimately gets a 503 until /readyz flips. It
// retries 503s for up to within, and gives each read perCall.
func JobStatus(cl *client.Client, jobID string, within, perCall time.Duration) (*api.JobStatus, error) {
	deadline := time.Now().Add(within)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), perCall)
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
