package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"gridsched/internal/service/api"
)

// recoverDrain is how many acknowledged tasks the fixed pre-crash state
// holds: half of four 6,000-task jobs.
func recoverDrain(e *env) int { return 2 * coaddJobTasks(e) }

// crashedState is a data directory as kill -9 left it, with the client's
// record of what the service had acknowledged before the kill.
type crashedState struct {
	dir string
	led *ledger
	ops *opCounts
}

// prepareCrashedState builds the fixed state recovery is timed on: a fresh
// durable gridschedd, four Coadd jobs, one sequential worker draining
// exactly recoverDrain tasks, then SIGKILL. It is the set-up of
// durable_recover, so it is performed setupReps times.
func prepareCrashedState(ctx context.Context, d *deployment, e *env) (*crashedState, error) {
	p, err := durableCoaddPlan(e, recoverDrain(e))()
	if err != nil {
		return nil, err
	}
	rig, err := startStreamRig(ctx, d, p)
	if err != nil {
		return nil, err
	}
	err = rig.waitWorkers(ctx)
	rig.srv.stop() // the crash
	if qerr := rig.quiesce(); err == nil {
		err = qerr
	}
	if err != nil {
		return nil, err
	}
	if got := rig.led.total(); got != recoverDrain(e) {
		return nil, fmt.Errorf("pre-crash drain acknowledged %d tasks, want %d", got, recoverDrain(e))
	}
	return &crashedState{dir: p.server.dataDir, led: rig.led, ops: rig.ops}, nil
}

// copyDir copies the regular files of src (a data directory: wal.log and
// snapshot.json) into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	_, err = io.Copy(out, in)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

// recoverOnce restarts gridschedd on a copy of the crashed state and
// returns how long it took from exec to /readyz answering ready, with the
// running server.
func recoverOnce(ctx context.Context, d *deployment, st *crashedState, n int) (*server, time.Duration, error) {
	dir := fmt.Sprintf("%s-r%d", st.dir, n)
	if err := copyDir(st.dir, dir); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	srv, err := d.startServer(serverOpts{dataDir: dir})
	if err != nil {
		return nil, 0, err
	}
	if err := srv.waitReady(ctx); err != nil {
		srv.stop()
		return nil, 0, err
	}
	return srv, time.Since(start), nil
}

// runDurableRecover times kill -9 recovery: the unit operation is one
// restart of gridschedd on the fixed half-drained state, repeated for the
// length of the timed phase; after every restart each job's completed
// count must equal what the client held acknowledged before the kill, and
// after the last one the jobs are drained to completion.
func runDurableRecover(ctx context.Context, e *env) (*outcome, error) {
	if e.trace {
		return traceRecover(ctx, e)
	}
	d := &deployment{sup: e.sup}
	var setupS []float64
	var st *crashedState
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		var err error
		if st, err = prepareCrashedState(ctx, d, e); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}

	o := &outcome{}
	var recoveryMs, rss []float64
	var last *server
	defer func() {
		if last != nil {
			last.stop()
		}
	}()
	begin := time.Now()
	for n := 0; n == 0 || time.Since(begin).Seconds() < e.seconds; n++ {
		if last != nil {
			last.stop() // kill -9 again: every restart starts from a crash
			_ = os.RemoveAll(fmt.Sprintf("%s-r%d", st.dir, n-1))
		}
		srv, took, err := recoverOnce(ctx, d, st, n)
		if err != nil {
			return nil, err
		}
		last = srv
		recoveryMs = append(recoveryMs, float64(took)/1e6)
		rss = append(rss, srv.peakRSSMB())
		cl, err := d.newClient(srv.base, "json", false)
		if err != nil {
			return nil, err
		}
		bad, _, err := verifyJobs(ctx, st.led, cl)
		if err != nil {
			return nil, err
		}
		st.ops.attempted.Add(1)
		if len(bad) > 0 {
			st.ops.failed.Add(1)
			for _, b := range bad {
				o.violations = append(o.violations, fmt.Sprintf("restart %d: %s", n, b))
			}
		}
	}

	// Drain the last recovered server to completion: the crash-time leases
	// expired at recovery, so every task must still complete exactly once.
	rig := &streamRig{srv: last, led: st.led, ops: st.ops}
	if err := rig.addWorkers(ctx, d, 2, 0, nil); err != nil {
		return nil, err
	}
	total := len(coaddTenants) * coaddJobTasks(e)
	deadline := time.Now().Add(60 * time.Second)
	for st.led.total() < total && time.Now().Before(deadline) && rig.firstErr() == nil && ctx.Err() == nil {
		time.Sleep(5 * time.Millisecond)
	}
	if err := rig.quiesce(); err != nil {
		return nil, err
	}
	cl, err := d.newClient(last.base, "json", false)
	if err != nil {
		return nil, err
	}
	bad, jobs, err := verifyJobs(ctx, st.led, cl)
	if err != nil {
		return nil, err
	}
	o.violations = append(o.violations, bad...)
	var transfers, dispatched int64
	for _, j := range jobs {
		if j.State != api.JobCompleted {
			o.violations = append(o.violations, fmt.Sprintf("job %s still %s after the post-recovery drain (%d of %d)", j.ID, j.State, j.Completed, j.Tasks))
		}
		transfers += j.Transfers
		dispatched += int64(j.Dispatched)
	}
	o.attempted, o.failed = st.ops.attempted.Load(), st.ops.failed.Load()
	if o.failed > 0 {
		o.violations = append(o.violations, fmt.Sprintf("%d operations failed", o.failed))
	}
	p50 := median(recoveryMs)
	o.metrics = map[string]float64{
		mSetupS:           median(setupS),
		mTasksPerS:        float64(recoverDrain(e)) / (p50 / 1e3),
		mOpP50Ms:          p50,
		mPeakRSSMB:        median(rss),
		mTransfersPerTask: float64(transfers) / float64(max(dispatched, 1)),
	}
	o.notes = []string{
		fmt.Sprintf("op = one kill -9 -> /readyz ready restart on the %d-task state, n=%d restarts (ms): %.0f", recoverDrain(e), len(recoveryMs), recoveryMs),
		"tasks_per_s = acknowledged tasks restored per second of recovery",
		fmt.Sprintf("set-up samples (s): %.3f", setupS),
	}
	return o, nil
}
