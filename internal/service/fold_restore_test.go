package service_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"gridsched/internal/service"
	"gridsched/internal/service/api"
)

// stripDraws removes every job's draw count from dir's manifest — the
// manifest of a scheduler that records none — and returns how many it
// found.
func stripDraws(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	if err := service.EditManifestForTest(dir, func(_ string, j *service.ManifestJobForTest) {
		if j.Draws != nil {
			n, j.Draws = n+1, nil
		}
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

// editDraws rewrites one job's draw count inside dir's manifest.
func editDraws(t *testing.T, dir, jobID string, edit func(draws uint64) uint64) {
	t.Helper()
	found := false
	if err := service.EditManifestForTest(dir, func(id string, j *service.ManifestJobForTest) {
		if id == jobID && j.Draws != nil {
			found, j.Draws = true, new(uint64)
			*j.Draws = edit(*j.Draws)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("job %s carries no draw count in the manifest", jobID)
	}
}

// TestFoldedRestoreMatchesReasked: one crashed data dir — ten running jobs
// of every scheduler family, a speculating one among them, a journal tail on
// top — is recovered as written, its worker-centric ledgers folded, and
// again with the draw counts taken out of the manifest, every ledger
// re-asked. The two recoveries must be one service: the same bytes from GET
// /v1/jobs and /v1/tenants, the same drain order, the same jobs after it.
// CI runs this under -cpu 1,4: restore folds jobs side by side.
func TestFoldedRestoreMatchesReasked(t *testing.T) {
	clk := &policyClock{base: time.Unix(1_700_000_000, 0)}
	leader, dir := buildRestoreFleet(t, clk)
	leader.CrashForTest()
	cut := clk.ms.Load()

	type view struct {
		folded, reasked        int64
		jobs, tenants, drained []byte
		drain                  []string
	}
	look := func(dir string) view {
		s, err := recoverAt(dir, clk, runtime.GOMAXPROCS(0))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		c := s.Counters()
		v := view{folded: c.ReplayFolded.Load(), reasked: c.ReplayReasked.Load()}
		v.jobs = getBody(t, s.Handler(), "/v1/jobs")
		v.tenants = getBody(t, s.Handler(), "/v1/tenants")
		v.drain = drainOrder(t, s, clk, cut)
		v.drained = getBody(t, s.Handler(), "/v1/jobs")
		// Whichever way it came back, the checkpoint recovery ends with
		// records where every worker-centric job's stream stands.
		if _, jobs := manifestJobs(t, dir); true {
			for _, p := range restoreFleet {
				j := jobs[fleetJobID(t, s, p.tag)]
				has := j.Draws != nil
				foldable := p.algo != "workqueue" && !strings.HasPrefix(p.algo, "context:")
				if j.State == api.JobRunning && has != foldable {
					t.Errorf("job %s (%s) after recovery: draws recorded = %v", p.tag, p.algo, has)
				}
			}
		}
		return v
	}

	asWritten, stripped := copyDirForTest(t, dir), copyDirForTest(t, dir)
	if n := stripDraws(t, stripped); n < 5 {
		t.Fatalf("the crashed manifest records draws for %d jobs", n)
	}
	folded, reasked := look(asWritten), look(stripped)

	if folded.folded == 0 || reasked.folded != 0 {
		t.Fatalf("%d events folded as written, %d with the draw counts stripped", folded.folded, reasked.folded)
	}
	// The decorated, FIFO and task-centric jobs and the tail are re-asked
	// either way; the rest moves from one count to the other.
	if folded.reasked == 0 || folded.folded+folded.reasked != reasked.reasked {
		t.Errorf("as written %d folded + %d re-asked, stripped %d re-asked", folded.folded, folded.reasked, reasked.reasked)
	}
	if len(folded.drain) == 0 {
		t.Fatal("nothing left to drain at the cut")
	}
	for _, f := range []struct {
		what      string
		got, want []byte
	}{
		{"GET /v1/jobs", folded.jobs, reasked.jobs},
		{"GET /v1/tenants", folded.tenants, reasked.tenants},
		{"drain order", []byte(strings.Join(folded.drain, " ")), []byte(strings.Join(reasked.drain, " "))},
		{"GET /v1/jobs after the drain", folded.drained, reasked.drained},
	} {
		if !bytes.Equal(f.got, f.want) {
			t.Errorf("%s\nfolded    %s\nre-asked  %s", f.what, f.got, f.want)
		}
	}
}

// TestWrongDrawsFailAtTheTail: the fold takes the draw count on trust
// within bounds, and the journal tail is what checks it. A count that is
// off by one rebuilds a scheduler one step along its random stream; the
// first tail dispatch it would have decided differently refuses the
// recovery, naming the job — on one core as on four.
func TestWrongDrawsFailAtTheTail(t *testing.T) {
	clk := &policyClock{base: time.Unix(1_700_000_000, 0)}
	leader, dir := buildRestoreFleet(t, clk)
	// A tail over a job that draws for every decision.
	m := &mirror{t: t, clk: clk, dir: dir, s: leader}
	w := m.register(0, "h")
	for i := 0; i < 6; i++ {
		m.report(m.mustPull(w), w, api.OutcomeSuccess, 25)
	}
	leader.CrashForTest()
	h := fleetJobID(t, leader, "h")

	if s, err := recoverAt(copyDirForTest(t, dir), clk, 1); err != nil {
		t.Fatalf("the data dir as written: %v", err)
	} else {
		s.Close()
	}
	bad := copyDirForTest(t, dir)
	editDraws(t, bad, h, func(draws uint64) uint64 { return draws + 1 })
	var errs []string
	for _, procs := range []int{1, 4} {
		s, err := recoverAt(copyDirForTest(t, bad), clk, procs)
		if err == nil {
			s.Close()
			t.Fatalf("recovery on %d cores accepted a draw count off by one", procs)
		}
		for _, want := range []string{"replay job " + h + " (combined.2)", "scheduler assigned task", "journal says"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("recovery on %d cores: %v\nwant it to mention %q", procs, err, want)
			}
		}
		errs = append(errs, err.Error())
	}
	if errs[0] != errs[1] {
		t.Errorf("one core:   %s\nfour cores: %s", errs[0], errs[1])
	}
}

// getBody is GET path of h, which must answer 200.
func getBody(t *testing.T, h http.Handler, path string) []byte {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, rr.Code, rr.Body)
	}
	return rr.Body.Bytes()
}
