package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gridsched/internal/service/api"
	"gridsched/internal/testkit"
)

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-policy", "mru"}, nil); err == nil {
		t.Fatal("accepted unknown policy")
	}
	if err := run(context.Background(), []string{"-sites", "0", "-addr", "127.0.0.1:0"}, nil); err == nil {
		t.Fatal("accepted zero sites")
	}
}

// TestBootstrapReadiness: while a durable daemon replays, /readyz is a 503
// whose body names both the status and the role, as docs/PROTOCOL.md
// promises.
func TestBootstrapReadiness(t *testing.T) {
	rw := httptest.NewRecorder()
	bootstrapHandler().ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	var rd api.Readiness
	if err := json.Unmarshal(rw.Body.Bytes(), &rd); err != nil {
		t.Fatalf("readyz body %q: %v", rw.Body, err)
	}
	if rw.Code != http.StatusServiceUnavailable || rd.Status != "recovering" || rd.Role != api.RoleRecovering {
		t.Fatalf("bootstrap readyz: %d %+v, want 503 recovering/recovering", rw.Code, rd)
	}
}

func TestDaemonServesProtocol(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrCh := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-sites", "2", "-workers", "2", "-capacity", "100",
			"-lease", "2s", "-policy", "fifo",
		}, func(addr string) { addrCh <- addr })
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case err := <-errCh:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never became ready")
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	// onReady fires after recovery, so readiness must already report ready.
	resp, err = http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(ready), "ready") {
		t.Fatalf("readyz: %d %s", resp.StatusCode, ready)
	}

	// Submit a one-task job by name and read it back.
	body := map[string]any{
		"name":      "smoke",
		"algorithm": "workqueue",
		"workload": map[string]any{
			"name":     "tiny",
			"numFiles": 2,
			"tasks":    []map[string]any{{"id": 0, "files": []int{0, 1}}},
		},
	}
	buf, _ := json.Marshal(body)
	resp, err = http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d %s", resp.StatusCode, sub)
	}
	var subResp struct {
		JobID string `json:"jobId"`
	}
	if err := json.Unmarshal(sub, &subResp); err != nil || subResp.JobID == "" {
		t.Fatalf("submit response %s: %v", sub, err)
	}

	resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/%s", base, subResp.JobID))
	if err != nil {
		t.Fatal(err)
	}
	job, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(job), `"state":"running"`) {
		t.Fatalf("job status: %s", job)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	met, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(met), "gridsched_jobs_submitted_total 1") {
		t.Fatalf("metrics: %s", met)
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

// TestFlagsMatchREADME: the flag set, names and defaults, is README's
// "gridschedd flags" table.
func TestFlagsMatchREADME(t *testing.T) {
	fs, _ := flags()
	testkit.FlagsMatchTable(t, fs, "../../README.md", "**gridschedd flags")
}
