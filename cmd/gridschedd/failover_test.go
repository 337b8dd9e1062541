package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
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
)

// reservePort grabs a free localhost port and releases it for a daemon to
// re-bind.
func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gridschedd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func getReadiness(baseURL string) (*api.Readiness, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/readyz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var rd api.Readiness
	if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
		return nil, err
	}
	return &rd, nil
}

// waitStandbyCaughtUp blocks until the standby's replicated position
// reaches the leader's current LSN with zero lag — the checkpoint after
// which everything the leader acknowledged is on the standby too.
func waitStandbyCaughtUp(t *testing.T, leaderURL, standbyURL string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		lrd, lerr := getReadiness(leaderURL)
		srd, serr := getReadiness(standbyURL)
		if lerr == nil && serr == nil &&
			srd.Role == api.RoleFollower && srd.LagLSN == 0 && srd.LastLSN >= lrd.LastLSN {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("standby never caught up to the leader")
}

// TestFailoverGauntletKill9 is the failover acceptance gauntlet: a leader
// and a hot standby run as real gridschedd subprocesses; workers complete
// part of a job; the standby catches up; then the leader is SIGKILLed
// under live noise traffic and the standby is promoted. The promoted node
// must serve within the 500ms budget, hold every job acknowledged before
// the catch-up checkpoint, and drive the job to completion with every
// task completed exactly once. CI runs this under -race as the
// failover-gauntlet job.
func TestFailoverGauntletKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess gauntlet skipped in -short")
	}
	const (
		tasks   = 800
		workers = 8
	)

	bin := buildDaemon(t)
	leaderAddr, standbyAddr := reservePort(t), reservePort(t)
	leaderURL := "http://" + leaderAddr
	standbyURL := "http://" + standbyAddr
	topo := []string{"-sites", "2", "-workers", "4", "-capacity", "200", "-lease", "2s"}

	leader := testkit.StartDaemon(t, bin, append([]string{
		"-addr", leaderAddr,
		"-data-dir", t.TempDir(), "-fsync", "batch", "-snapshot-every", "500",
	}, topo...)...)
	standby := testkit.StartDaemon(t, bin, append([]string{
		"-addr", standbyAddr, "-follow", leaderURL,
		"-data-dir", t.TempDir(), "-fsync", "batch", "-snapshot-every", "500",
	}, topo...)...)

	cl := client.NewMulti([]string{leaderURL, standbyURL}, nil)
	testkit.WaitHealthy(t, cl)

	// Tracked submissions: one big job the workers grind on, plus a
	// handful of small acked jobs that must survive the failover.
	ctx, cancelAll := context.WithCancel(context.Background())
	defer cancelAll()
	bigJob, err := cl.SubmitJob(ctx, "failover-big", "combined.2", 17, testkit.GauntletWorkload(tasks, 4))
	if err != nil {
		t.Fatal(err)
	}
	acked := []string{bigJob}
	for i := 0; i < 4; i++ {
		id, err := cl.SubmitJob(ctx, fmt.Sprintf("failover-small-%d", i), "rest", int64(i), testkit.GauntletWorkload(6, 2))
		if err != nil {
			t.Fatal(err)
		}
		acked = append(acked, id)
	}

	// Phase 1: a tracked worker fleet completes part of the big job
	// against the leader, recording every acknowledged completion. Acks are
	// keyed by (job, task) — every job's task ids start at 0, so a bare
	// task id legitimately completes once per job.
	var ackMu sync.Mutex
	acks := make(map[string]int)
	ackKey := func(a *api.Assignment) string {
		return fmt.Sprintf("%s/%d", a.JobID, a.Task.ID)
	}
	bigAcks := func() int {
		ackMu.Lock()
		defer ackMu.Unlock()
		n := 0
		for k := range acks {
			if len(k) > len(bigJob) && k[:len(bigJob)] == bigJob {
				n++
			}
		}
		return n
	}
	phase1, stopPhase1 := context.WithCancel(ctx)
	var wg1 sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg1.Add(1)
		site := i % 2
		go func() {
			defer wg1.Done()
			_ = cl.RunWorker(phase1, client.WorkerConfig{
				Site:          &site,
				ReconnectWait: 100 * time.Millisecond,
				Execute: func(execCtx context.Context, _ core.WorkerRef, _ *api.Assignment) error {
					select {
					case <-execCtx.Done():
					case <-time.After(10 * time.Millisecond):
					}
					return nil
				},
				OnReport: func(_ context.Context, a *api.Assignment, outcome string, rep *api.ReportResponse) bool {
					if outcome == api.OutcomeSuccess && rep.Accepted && !rep.Stale && !rep.Cancelled {
						ackMu.Lock()
						acks[ackKey(a)]++
						ackMu.Unlock()
					}
					return false
				},
			})
		}()
	}
	// Let the fleet make real progress, then settle it so every completion
	// the leader acknowledged has also been streamed to the standby.
	deadline := time.Now().Add(30 * time.Second)
	for {
		n := bigAcks()
		if n >= 100 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("phase 1 stalled at %d completions\nleader:\n%s", n, leader.Stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	stopPhase1()
	wg1.Wait()
	waitStandbyCaughtUp(t, leaderURL, standbyURL)
	st, err := jobStatus(cl, bigJob)
	if err != nil {
		t.Fatal(err)
	}
	checkpointCompleted := st.Completed
	t.Logf("checkpoint: %d/%d completed and replicated", checkpointCompleted, tasks)

	// Noise traffic through the kill: fire-and-forget submits and status
	// reads against both endpoints. Failures are expected mid-failover;
	// the point is that the kill lands under live load.
	noise, stopNoise := context.WithCancel(ctx)
	var noiseWG sync.WaitGroup
	noiseWG.Add(1)
	go func() {
		defer noiseWG.Done()
		ncl := client.NewMulti([]string{leaderURL, standbyURL}, nil)
		for i := 0; ; i++ {
			select {
			case <-noise.Done():
				return
			default:
			}
			sctx, scancel := context.WithTimeout(noise, 300*time.Millisecond)
			_, _ = ncl.SubmitJob(sctx, fmt.Sprintf("noise-%d", i), "workqueue", int64(i), testkit.GauntletWorkload(3, 1))
			_, _ = ncl.Jobs(sctx)
			scancel()
			time.Sleep(10 * time.Millisecond)
		}
	}()

	// The failover: kill -9 the leader mid-traffic, promote the standby,
	// and demand it serves within the budget.
	time.Sleep(50 * time.Millisecond) // let noise actually overlap the kill
	leader.Kill9(t)

	promoteStart := time.Now()
	pctx, pcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer pcancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodPost, standbyURL+"/v1/replication/promote", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("promote: %v\nstandby:\n%s", err, standby.Stderr.String())
	}
	var promoted api.PromoteResponse
	if err := json.NewDecoder(resp.Body).Decode(&promoted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || promoted.Role != api.RoleLeader {
		t.Fatalf("promote: http %d, %+v\nstandby:\n%s", resp.StatusCode, promoted, standby.Stderr.String())
	}
	// Serving check inside the latency budget: the promoted node answers a
	// real read with the replicated state.
	jctx, jcancel := context.WithTimeout(context.Background(), 5*time.Second)
	ncl := client.New(standbyURL, nil)
	jobs, err := ncl.Jobs(jctx)
	jcancel()
	if err != nil {
		t.Fatalf("promoted node not serving: %v", err)
	}
	promoteLatency := time.Since(promoteStart)
	if promoteLatency > 500*time.Millisecond {
		t.Errorf("promotion to first served read took %s (budget 500ms)", promoteLatency)
	}
	t.Logf("promoted at lsn %d, serving after %s", promoted.LastLSN, promoteLatency)

	stopNoise()
	noiseWG.Wait()

	// Zero acked submissions lost: every job acknowledged before the
	// checkpoint is still there, with at least the checkpointed progress.
	have := make(map[string]api.JobStatus, len(jobs))
	for _, j := range jobs {
		have[j.ID] = j
	}
	for _, id := range acked {
		if _, ok := have[id]; !ok {
			t.Errorf("acked job %s lost in failover", id)
		}
	}
	if got := have[bigJob].Completed; got < checkpointCompleted {
		t.Errorf("completions regressed across failover: %d < checkpointed %d", got, checkpointCompleted)
	}

	// Phase 2: a fresh fleet drains the big job on the promoted node.
	var wg2 sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg2.Add(1)
		site := i % 2
		go func() {
			defer wg2.Done()
			_ = ncl.RunWorker(ctx, client.WorkerConfig{
				Site:          &site,
				ReconnectWait: 100 * time.Millisecond,
				Execute: func(execCtx context.Context, _ core.WorkerRef, _ *api.Assignment) error {
					select {
					case <-execCtx.Done():
					case <-time.After(5 * time.Millisecond):
					}
					return nil
				},
				OnReport: func(_ context.Context, a *api.Assignment, outcome string, rep *api.ReportResponse) bool {
					if outcome == api.OutcomeSuccess && rep.Accepted && !rep.Stale && !rep.Cancelled {
						ackMu.Lock()
						acks[ackKey(a)]++
						ackMu.Unlock()
					}
					return false
				},
			})
		}()
	}
	drainDeadline := time.Now().Add(3 * time.Minute)
	var final *api.JobStatus
	for {
		if time.Now().After(drainDeadline) {
			t.Fatalf("big job never completed after failover; last %+v\nstandby:\n%s", final, standby.Stderr.String())
		}
		st, err := jobStatus(ncl, bigJob)
		if err == nil {
			final = st
			if st.State == api.JobCompleted {
				break
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	cancelAll()
	wg2.Wait()

	// Exactly-once across the failover: the completion counter accounts
	// for every task, and no tracked worker was ever acknowledged twice
	// for the same task — the promoted node inherited, not re-ran, the
	// checkpointed work.
	if final.Completed != tasks {
		t.Fatalf("big job completed with %d/%d completions\n%+v", final.Completed, tasks, final)
	}
	ackMu.Lock()
	defer ackMu.Unlock()
	for key, n := range acks {
		if n > 1 {
			t.Errorf("task %s acknowledged complete %d times across the failover", key, n)
		}
	}
	if len(acks) == 0 {
		t.Fatal("no completions acknowledged at all; harness broken")
	}
}

// TestFollowerDaemonAutoPromotes covers -auto-promote end to end
// in-process: a standby that loses its leader for longer than the grace
// window must promote itself and start answering as a leader.
func TestFollowerDaemonAutoPromotes(t *testing.T) {
	leaderAddr, standbyAddr := reservePort(t), reservePort(t)
	leaderURL := "http://" + leaderAddr
	standbyURL := "http://" + standbyAddr

	lctx, lcancel := context.WithCancel(context.Background())
	defer lcancel()
	leaderErr := make(chan error, 1)
	leaderReady := make(chan string, 1)
	go func() {
		leaderErr <- run(lctx, []string{
			"-addr", leaderAddr, "-sites", "2", "-workers", "2", "-capacity", "100",
			"-data-dir", t.TempDir(), "-fsync", "batch",
		}, func(a string) { leaderReady <- a })
	}()
	select {
	case <-leaderReady:
	case err := <-leaderErr:
		t.Fatalf("leader exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("leader never ready")
	}

	sctx, scancel := context.WithCancel(context.Background())
	defer scancel()
	standbyErr := make(chan error, 1)
	standbyReady := make(chan string, 1)
	go func() {
		standbyErr <- run(sctx, []string{
			"-addr", standbyAddr, "-sites", "2", "-workers", "2", "-capacity", "100",
			"-data-dir", t.TempDir(), "-fsync", "batch",
			"-follow", leaderURL, "-auto-promote", "400ms",
		}, func(a string) { standbyReady <- a })
	}()
	select {
	case <-standbyReady:
	case err := <-standbyErr:
		t.Fatalf("standby exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("standby never ready")
	}

	cl := client.New(leaderURL, nil)
	ctx := context.Background()
	jobID, err := cl.SubmitJob(ctx, "survivor", "rest", 3, testkit.GauntletWorkload(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	waitStandbyCaughtUp(t, leaderURL, standbyURL)

	// Leader goes away; the standby must promote itself within the grace
	// window (plus polling slack).
	lcancel()
	select {
	case <-leaderErr:
	case <-time.After(10 * time.Second):
		t.Fatal("leader did not shut down")
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		rd, err := getReadiness(standbyURL)
		if err == nil && rd.Role == api.RoleLeader {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby never auto-promoted; last readiness %+v, %v", rd, err)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// The promoted node holds the replicated job and accepts mutations.
	scl := client.New(standbyURL, nil)
	st, err := scl.Job(ctx, jobID)
	if err != nil || st.Name != "survivor" {
		t.Fatalf("replicated job after auto-promotion: %+v, %v", st, err)
	}
	if _, err := scl.SubmitJob(ctx, "post-promotion", "workqueue", 1, testkit.GauntletWorkload(3, 1)); err != nil {
		t.Fatalf("promoted node rejected a submit: %v", err)
	}

	scancel()
	select {
	case err := <-standbyErr:
		if err != nil {
			t.Fatalf("standby shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("standby did not shut down")
	}
}
