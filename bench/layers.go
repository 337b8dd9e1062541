package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gridsched"
	"gridsched/internal/journal"
	"gridsched/internal/service/api"
	"gridsched/internal/storage"
	"gridsched/internal/workload"
)

// The probes below time one layer standalone, on inputs captured from the
// real run (messages at the client boundary, frames read back from the
// write-ahead log), by calling the layer's public functions directly.

// probeBudget is how long one timing loop runs.
const probeBudget = 40 * time.Millisecond

// timeLoop calls fn repeatedly for about probeBudget and returns the mean
// seconds per call.
func timeLoop(fn func()) float64 {
	fn() // warm
	n := 0
	start := time.Now()
	for time.Since(start) < probeBudget {
		fn()
		n++
	}
	return time.Since(start).Seconds() / float64(n)
}

// roundTrip times Marshal+Unmarshal of v with codec c into out (a pointer
// to a zero value of v's type) and returns seconds per round trip and the
// encoded size.
func roundTrip(c api.Codec, v, out any) (float64, int, error) {
	data, err := c.Marshal(v)
	if err != nil {
		return 0, 0, err
	}
	if err := c.Unmarshal(data, out); err != nil {
		return 0, 0, err
	}
	s := timeLoop(func() {
		b, _ := c.Marshal(v)
		_ = c.Unmarshal(b, out)
	})
	return s, len(data), nil
}

// codecSamples are the messages a run captured.
type codecSamples struct {
	frame       *api.LeaseBatch      // one full lease frame
	batchResult []api.ReportResponse // the answer to returning it
	pull        *api.PullResponse    // one classic assignment
	report      *api.ReportResponse
	submit      *api.SubmitJobRequest // one of the run's larger submissions
}

// probeCodecs fills the codec.* metrics for whichever messages were
// captured; the rest stay 0.
func probeCodecs(m map[string]float64, cs codecSamples) error {
	if cs.frame != nil && len(cs.frame.Assignments) > 0 {
		n := float64(len(cs.frame.Assignments))
		s, frameBytes, err := roundTrip(api.Binary, cs.frame, &api.LeaseBatch{})
		if err != nil {
			return fmt.Errorf("lease frame codec: %w", err)
		}
		m["codec.bin_lease_us_per_task"] = s * 1e6 / n
		req := api.ReportBatchRequest{Reports: make([]api.ReportItem, len(cs.frame.Assignments))}
		for i, a := range cs.frame.Assignments {
			req.Reports[i] = api.ReportItem{AssignmentID: a.ID, Outcome: api.OutcomeSuccess}
		}
		s1, reqBytes, err := roundTrip(api.Binary, &req, &api.ReportBatchRequest{})
		if err != nil {
			return fmt.Errorf("report batch codec: %w", err)
		}
		resp := api.ReportBatchResponse{Results: cs.batchResult}
		s2, respBytes, err := roundTrip(api.Binary, &resp, &api.ReportBatchResponse{})
		if err != nil {
			return fmt.Errorf("report batch codec: %w", err)
		}
		m["codec.bin_report_us_per_task"] = (s1 + s2) * 1e6 / n
		// Payload bytes only: HTTP framing and headers are not counted.
		m["codec.wire_bytes_per_task"] = float64(frameBytes+reqBytes+respBytes) / n
	}
	if cs.pull != nil {
		s1, b1, err := roundTrip(api.JSON, &api.PullRequest{WaitMillis: pollWait.Milliseconds()}, &api.PullRequest{})
		if err != nil {
			return err
		}
		s2, b2, err := roundTrip(api.JSON, cs.pull, &api.PullResponse{})
		if err != nil {
			return err
		}
		m["codec.json_pull_us"] = (s1 + s2) * 1e6
		s3, b3, err := roundTrip(api.JSON, &api.ReportRequest{WorkerID: "w1-00000000", Outcome: api.OutcomeSuccess}, &api.ReportRequest{})
		if err != nil {
			return err
		}
		s4, b4, err := roundTrip(api.JSON, cs.report, &api.ReportResponse{})
		if err != nil {
			return err
		}
		m["codec.json_report_us"] = (s3 + s4) * 1e6
		if cs.frame == nil {
			m["codec.wire_bytes_per_task"] = float64(b1 + b2 + b3 + b4)
		}
	}
	if cs.submit != nil {
		for name, c := range map[string]api.Codec{"codec.json_submit_ms_per_mb": api.JSON, "codec.bin_submit_ms_per_mb": api.Binary} {
			s, size, err := roundTrip(c, cs.submit, &api.SubmitJobRequest{})
			if err != nil {
				return fmt.Errorf("submit codec: %w", err)
			}
			m[name] = s * 1e3 / (float64(size) / 1e6)
		}
	}
	return nil
}

// probeJournal reads the write-ahead log at walPath back with
// journal.ReadLog, then appends the same frames to a fresh log in the same
// fsync mode the daemons run with.
func probeJournal(m map[string]float64, walPath, scratchDir string) error {
	var payloads [][]byte
	start := time.Now()
	info, err := journal.ReadLog(walPath, 0, func(_ uint64, p []byte) error {
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	})
	readS := time.Since(start).Seconds()
	if err != nil {
		return fmt.Errorf("reading %s: %w", walPath, err)
	}
	if info.Records == 0 {
		return nil
	}
	m["journal.read_us_per_record"] = readS * 1e6 / float64(info.Records)
	out := filepath.Join(scratchDir, "probe.wal")
	defer os.Remove(out)
	w, err := journal.OpenWriter(out, journal.SyncBatch, 25*time.Millisecond, 0, 0, nil)
	if err != nil {
		return err
	}
	start = time.Now()
	for _, p := range payloads {
		if _, err := w.Append(p); err != nil {
			w.Abandon()
			return err
		}
	}
	appendS := time.Since(start).Seconds()
	if err := w.Close(); err != nil {
		return err
	}
	m["journal.append_us_per_record"] = appendS * 1e6 / float64(len(payloads))
	return nil
}

// directTimes is what directRun measured: per-call times in µs, the submit
// in ms.
type directTimes struct {
	pullUs, reportUs []float64
	submitMs         float64
	perTaskUs        float64
}

// directRun drives one job through a Service by calling SubmitJob, Pull and
// Report directly: no transport, no codec, no ingress. A non-empty dataDir
// makes the service durable.
func directRun(js jobSpec, dataDir string) (*directTimes, error) {
	svc, err := gridsched.NewService(gridsched.ServiceConfig{
		Topology: gridsched.ServiceTopology{Sites: defaultSites, WorkersPerSite: defaultWorkersPerSite,
			CapacityFiles: defaultCapacityFiles, Policy: storage.LRU},
		DataDir: dataDir, Fsync: journal.SyncBatch,
	})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	dt := &directTimes{}
	start := time.Now()
	if _, err := svc.SubmitJob(api.SubmitJobRequest{Name: js.name, Algorithm: js.algorithm, Seed: js.seed, Workload: js.w}); err != nil {
		return nil, err
	}
	dt.submitMs = float64(time.Since(start)) / 1e6
	reg, err := svc.Register(-1)
	if err != nil {
		return nil, err
	}
	begin := time.Now()
	for range js.w.Tasks {
		t0 := time.Now()
		resp, err := svc.Pull(nil, reg.WorkerID, 0)
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		if resp.Status != api.StatusAssigned {
			return nil, fmt.Errorf("direct pull returned %s with tasks remaining", resp.Status)
		}
		rr, err := svc.Report(resp.Assignment.ID, reg.WorkerID, api.OutcomeSuccess)
		t2 := time.Now()
		if err != nil {
			return nil, err
		}
		if !rr.Accepted {
			return nil, fmt.Errorf("direct report rejected")
		}
		dt.pullUs = append(dt.pullUs, float64(t1.Sub(t0))/1e3)
		dt.reportUs = append(dt.reportUs, float64(t2.Sub(t1))/1e3)
	}
	dt.perTaskUs = float64(time.Since(begin)) / 1e3 / float64(len(js.w.Tasks))
	return dt, nil
}

// probeService fills the service.* direct-call metrics from an in-memory
// run of js and, when durable, journal.durable_delta_us_per_task from a
// second, journaled run of the same job: the all-in cost of durability per
// task, record encoding included.
func probeService(m map[string]float64, js jobSpec, durable bool, scratchDir string) error {
	mem, err := directRun(js, "")
	if err != nil {
		return fmt.Errorf("direct in-memory run: %w", err)
	}
	m["service.pull_us_p50"] = median(mem.pullUs)
	m["service.pull_us_p99"], _ = tail(mem.pullUs, 0.99)
	m["service.report_us_p50"] = median(mem.reportUs)
	m["service.submit_ms_p50"] = mem.submitMs
	if !durable {
		return nil
	}
	dir, err := os.MkdirTemp(scratchDir, "direct-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dur, err := directRun(js, dir)
	if err != nil {
		return fmt.Errorf("direct durable run: %w", err)
	}
	m["journal.durable_delta_us_per_task"] = dur.perTaskUs - mem.perTaskUs
	return nil
}

// probeStorage replays w's tasks through one site store the way a single
// site would see them and reports the median CommitBatch time.
func probeStorage(m map[string]float64, w *workload.Workload) error {
	st, err := storage.New(defaultCapacityFiles, storage.LRU)
	if err != nil {
		return err
	}
	st.Reserve(w.NumFiles)
	us := make([]float64, 0, len(w.Tasks))
	var fetched, evicted []workload.FileID
	for _, t := range w.Tasks {
		start := time.Now()
		fetched, evicted, err = st.CommitBatchInto(t.Files, fetched[:0], evicted[:0])
		us = append(us, float64(time.Since(start))/1e3)
		if err != nil {
			return err
		}
	}
	m["storage.commit_us_p50"] = median(us)
	return nil
}

// runProbes runs every standalone probe a service workload has inputs for:
// js is the representative job (also the submission the codec probe
// encodes), cs the messages captured at the client boundary, walPath the
// write-ahead log to read back ("" when the workload journals nothing).
func runProbes(m map[string]float64, js jobSpec, cs codecSamples, walPath, scratchDir string) error {
	if err := probeService(m, js, walPath != "", scratchDir); err != nil {
		return err
	}
	if err := probeStorage(m, js.w); err != nil {
		return err
	}
	cs.submit = &api.SubmitJobRequest{Name: js.name, Algorithm: js.algorithm, Seed: js.seed, Workload: js.w, SubmissionID: js.name}
	if err := probeCodecs(m, cs); err != nil {
		return err
	}
	if walPath == "" {
		return nil
	}
	return probeJournal(m, walPath, scratchDir)
}
