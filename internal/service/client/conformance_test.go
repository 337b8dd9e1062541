package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridsched/internal/core"
	"gridsched/internal/service/api"
	"gridsched/internal/service/client"
	"gridsched/internal/testkit"
)

// answer is a scripted reply to a lease request (a stream open) or to a
// report: refuse with status (a 429 carries Retry-After: 1), sever the
// connection without answering, or accept — a lease request then gets one
// frame: the assignment named by grant (with staged files newly fetched for
// it), or nothing but an open-job count of zero.
type answer struct {
	status int
	sever  bool
	grant  string
	staged int
}

// scriptedSched is a scripted gridschedd. It records every request in
// arrival order — REGISTER, LEASE <worker> (a stream open), REPORT <worker>
// <assignment>=<outcome>..., DEREGISTER <worker> — and answers in whichever
// codec the request negotiates, so the table runs under
// GRIDSCHED_TEST_CODEC=binary too. Every stream must be opened at depth one,
// the default.
type scriptedSched struct {
	t        *testing.T
	register func(n int) int    // status for the n-th registration; nil or 0 accepts
	lease    func(n int) answer // the n-th lease request of the run
	report   func(n int) answer // the n-th report request; nil accepts

	mu  sync.Mutex
	log []string
	n   map[string]int
}

func (s *scriptedSched) note(kind, line string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = append(s.log, line)
	s.n[kind]++
	return s.n[kind]
}

func (s *scriptedSched) reply(w http.ResponseWriter, r *http.Request, code int, v any) {
	if api.AcceptsBinary(r.Header.Get("Accept")) && api.Binary.Supports(v) {
		b, err := api.Binary.Marshal(v)
		if err != nil {
			s.t.Error(err)
		}
		w.Header().Set("Content-Type", api.ContentTypeBinary)
		w.WriteHeader(code)
		_, _ = w.Write(b)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// read decodes a request body from whichever codec its Content-Type names.
func (s *scriptedSched) read(r *http.Request, v any) {
	body, err := io.ReadAll(r.Body)
	if err == nil && api.IsBinary(r.Header.Get("Content-Type")) {
		err = api.Binary.Unmarshal(body, v)
	} else if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		s.t.Error(err)
	}
}

// refuse answers a.status or severs the connection; false means a accepts.
func (s *scriptedSched) refuse(w http.ResponseWriter, a answer) bool {
	switch {
	case a.sever:
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			s.t.Error(err)
			return true
		}
		conn.Close()
	case a.status != 0:
		if a.status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		w.WriteHeader(a.status)
		_, _ = w.Write([]byte(`{"error":"scripted refusal"}`))
	default:
		return false
	}
	return true
}

func (s *scriptedSched) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		n := s.note("register", "REGISTER")
		if s.register != nil && s.refuse(w, answer{status: s.register(n)}) {
			return
		}
		s.reply(w, r, http.StatusCreated, &api.RegisterResponse{WorkerID: fmt.Sprintf("w%d", n), LeaseTTLMillis: 60_000})
	})
	mux.HandleFunc("DELETE /v1/workers/{id}", func(w http.ResponseWriter, r *http.Request) {
		s.note("deregister", "DEREGISTER "+r.PathValue("id"))
		_, _ = w.Write([]byte(`{}`))
	})
	mux.HandleFunc("GET /v1/workers/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		if got := r.URL.Query().Get("batch"); got != "1" {
			s.t.Errorf("stream opened with batch=%q, want 1: a default WorkerConfig holds one lease at a time", got)
		}
		a := s.lease(s.note("lease", "LEASE "+r.PathValue("id")))
		if s.refuse(w, a) {
			return
		}
		codec, ct := api.JSON, api.ContentTypeStreamJSON
		if api.AcceptsBinary(r.Header.Get("Accept")) {
			codec, ct = api.Binary, api.ContentTypeStreamBinary
		}
		lb := &api.LeaseBatch{}
		if a.grant != "" {
			lb.Assignments = []api.Assignment{{ID: a.grant, JobID: "j1", LeaseTTLMillis: time.Minute.Milliseconds(), Staged: a.staged}}
			lb.OpenJobs = 1
		}
		payload, err := codec.Marshal(lb)
		if err != nil {
			s.t.Error(err)
		}
		w.Header().Set("Content-Type", ct)
		_, _ = w.Write(api.AppendFrame(nil, payload))
		w.(http.Flusher).Flush()
		<-r.Context().Done() // the stream stays open, and silent, until the worker leaves
	})
	mux.HandleFunc("POST /v1/workers/{id}/reports", func(w http.ResponseWriter, r *http.Request) {
		var req api.ReportBatchRequest
		s.read(r, &req)
		line := "REPORT " + r.PathValue("id")
		resp := &api.ReportBatchResponse{}
		for _, it := range req.Reports {
			line += " " + it.AssignmentID + "=" + it.Outcome
			resp.Results = append(resp.Results, api.ReportResponse{Accepted: true, JobState: api.JobRunning})
		}
		n := s.note("report", line)
		if s.report != nil && s.refuse(w, s.report(n)) {
			return
		}
		s.reply(w, r, http.StatusOK, resp)
	})
	return mux
}

// TestWorkerLoopConformance pins RunWorker's loop from the outside: for
// each way a worker's life can go, the exact requests a default worker
// sends over its lease stream and what it returns.
func TestWorkerLoopConformance(t *testing.T) {
	stopWhenIdle := func(context.Context, int) (bool, error) { return true, nil }
	stopOnReport := func(context.Context, *api.Assignment, string, *api.ReportResponse) bool { return true }
	first := func(a answer) func(int) answer {
		return func(n int) answer {
			if n == 1 {
				return a
			}
			return answer{}
		}
	}
	status := func(code int) func(error) bool {
		return func(err error) bool {
			var ae *client.APIError
			return errors.As(err, &ae) && ae.StatusCode == code && strings.Contains(err.Error(), "credentials rejected")
		}
	}
	// hold is a row's Execute: it says it started, then runs until released
	// or interrupted, and records which.
	type hold struct {
		started, release chan struct{}
		interrupted      chan bool
	}
	newHold := func() *hold {
		return &hold{started: make(chan struct{}), release: make(chan struct{}), interrupted: make(chan bool, 1)}
	}
	exec := func(h *hold) func(context.Context, core.WorkerRef, *api.Assignment) error {
		return func(ctx context.Context, _ core.WorkerRef, _ *api.Assignment) error {
			close(h.started)
			select {
			case <-h.release:
				h.interrupted <- false
			case <-ctx.Done():
				h.interrupted <- true
			}
			return nil
		}
	}

	type row struct {
		name     string
		cfg      client.WorkerConfig
		register func(int) int
		lease    func(int) answer
		report   func(int) answer
		hold     *hold         // set: cancel ctx once the execution started
		minTime  time.Duration // the run must take at least this long (a Retry-After was honoured)
		want     []string
		wantErr  func(error) bool // nil: RunWorker returns nil
	}
	drained, aborted := newHold(), newHold()
	// The staging delay is waited out before the execution starts, which
	// fails the task if it finds its files still unstaged.
	var stagedFiles atomic.Int64
	stage := func(files int) time.Duration {
		stagedFiles.Store(int64(files))
		return time.Duration(files) * 100 * time.Millisecond
	}
	afterStaging := func(context.Context, core.WorkerRef, *api.Assignment) error {
		if stagedFiles.Swap(0) != 3 {
			return errors.New("executed before its 3 files were staged")
		}
		return nil
	}
	rows := []row{
		{
			name:     "401 at registration",
			cfg:      client.WorkerConfig{ReconnectWait: 10 * time.Millisecond},
			register: func(int) int { return http.StatusUnauthorized },
			want:     []string{"REGISTER"},
			wantErr:  status(http.StatusUnauthorized),
		},
		{
			name:    "401 mid-run",
			cfg:     client.WorkerConfig{ReconnectWait: 10 * time.Millisecond},
			lease:   first(answer{status: http.StatusUnauthorized}),
			want:    []string{"REGISTER", "LEASE w1", "DEREGISTER w1"},
			wantErr: status(http.StatusUnauthorized),
		},
		{
			name:    "429 on the lease request",
			cfg:     client.WorkerConfig{OnIdle: stopWhenIdle},
			lease:   first(answer{status: http.StatusTooManyRequests}),
			minTime: 500 * time.Millisecond, // Retry-After: 1, jittered down to no less than half
			want:    []string{"REGISTER", "LEASE w1", "LEASE w1", "DEREGISTER w1"},
		},
		{
			name:  "404 re-registers",
			cfg:   client.WorkerConfig{OnIdle: stopWhenIdle},
			lease: first(answer{status: http.StatusNotFound}),
			want:  []string{"REGISTER", "LEASE w1", "REGISTER", "LEASE w2", "DEREGISTER w2"},
		},
		{
			name:  "409 deregisters and re-registers",
			cfg:   client.WorkerConfig{OnIdle: stopWhenIdle},
			lease: first(answer{status: http.StatusConflict}),
			want:  []string{"REGISTER", "LEASE w1", "DEREGISTER w1", "REGISTER", "LEASE w2", "DEREGISTER w2"},
		},
		{
			// Fresh placement, and no goodbye to a server that is not there.
			name:  "transport error under ReconnectWait",
			cfg:   client.WorkerConfig{OnIdle: stopWhenIdle, ReconnectWait: 10 * time.Millisecond},
			lease: first(answer{sever: true}),
			want:  []string{"REGISTER", "LEASE w1", "REGISTER", "LEASE w2", "DEREGISTER w2"},
		},
		{
			name:  "transport error without ReconnectWait",
			cfg:   client.WorkerConfig{OnIdle: stopWhenIdle},
			lease: first(answer{sever: true}),
			want:  []string{"REGISTER", "LEASE w1", "DEREGISTER w1"},
			wantErr: func(err error) bool {
				var ae *client.APIError
				return err != nil && !errors.As(err, &ae)
			},
		},
		{
			name:  "ctx cancel without DrainGrace",
			cfg:   client.WorkerConfig{Execute: exec(aborted)},
			lease: first(answer{grant: "a1"}),
			hold:  aborted,
			want:  []string{"REGISTER", "LEASE w1", "REPORT w1 a1=failure", "DEREGISTER w1"},
		},
		{
			name:  "ctx cancel with DrainGrace",
			cfg:   client.WorkerConfig{Execute: exec(drained), DrainGrace: 10 * time.Second},
			lease: first(answer{grant: "a1"}),
			hold:  drained,
			want:  []string{"REGISTER", "LEASE w1", "REPORT w1 a1=success", "DEREGISTER w1"},
		},
		{
			name:  "OnIdle stop",
			cfg:   client.WorkerConfig{OnIdle: stopWhenIdle},
			lease: first(answer{}),
			want:  []string{"REGISTER", "LEASE w1", "DEREGISTER w1"},
		},
		{
			name:  "OnReport stop",
			cfg:   client.WorkerConfig{OnReport: stopOnReport},
			lease: first(answer{grant: "a1"}),
			want:  []string{"REGISTER", "LEASE w1", "REPORT w1 a1=success", "DEREGISTER w1"},
		},
		{
			name:    "StageDelay before Execute",
			cfg:     client.WorkerConfig{OnReport: stopOnReport, StageDelay: stage, Execute: afterStaging},
			lease:   first(answer{grant: "a1", staged: 3}),
			minTime: 300 * time.Millisecond,
			want:    []string{"REGISTER", "LEASE w1", "REPORT w1 a1=success", "DEREGISTER w1"},
		},
		{
			// The finished outcome waits out the refusal; the task is neither
			// dropped nor run again, and the registration stands.
			name:    "429 on the report",
			cfg:     client.WorkerConfig{OnReport: stopOnReport},
			lease:   first(answer{grant: "a1"}),
			report:  first(answer{status: http.StatusTooManyRequests}),
			minTime: 500 * time.Millisecond,
			want:    []string{"REGISTER", "LEASE w1", "REPORT w1 a1=success", "REPORT w1 a1=success", "DEREGISTER w1"},
		},
		{
			name:   "transport error on the report under ReconnectWait",
			cfg:    client.WorkerConfig{OnReport: stopOnReport, ReconnectWait: 10 * time.Millisecond},
			lease:  first(answer{grant: "a1"}),
			report: first(answer{sever: true}),
			want:   []string{"REGISTER", "LEASE w1", "REPORT w1 a1=success", "REPORT w1 a1=success", "DEREGISTER w1"},
		},
	}

	for _, r := range rows {
		// Named for the lease protocol: a LEASE is a stream open.
		t.Run("stream/"+r.name, func(t *testing.T) {
			s := &scriptedSched{t: t, register: r.register, lease: r.lease, report: r.report, n: map[string]int{}}
			ts := httptest.NewServer(s.handler())
			defer ts.Close()
			// No connection reuse: net/http quietly replays an idempotent
			// request (the stream's GET) whose reused connection was
			// severed, which would hide the very error a row scripts.
			cl := testkit.WireCodec(t, client.New(ts.URL, &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}))

			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			if r.hold != nil {
				go func() {
					<-r.hold.started
					cancel()
					time.Sleep(20 * time.Millisecond)
					close(r.hold.release)
				}()
			}
			start := time.Now()
			err := cl.RunWorker(ctx, r.cfg)
			if r.wantErr == nil && err != nil || r.wantErr != nil && !r.wantErr(err) {
				t.Fatalf("RunWorker returned %v", err)
			}
			if took := time.Since(start); took < r.minTime {
				t.Fatalf("run took %s, want at least %s", took, r.minTime)
			}
			if r.hold != nil {
				if got, want := <-r.hold.interrupted, r.cfg.DrainGrace == 0; got != want {
					t.Fatalf("execution interrupted = %v, want %v", got, want)
				}
			}
			s.mu.Lock()
			defer s.mu.Unlock()
			if !slices.Equal(s.log, r.want) {
				t.Fatalf("requests:\n got %q\nwant %q", s.log, r.want)
			}
		})
	}
}
