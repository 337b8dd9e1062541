package main

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"gridsched"
	"gridsched/internal/service"
	"gridsched/internal/service/api"
	"gridsched/internal/testkit"
	"gridsched/internal/workload"
)

func TestRunRejectsBadFlags(t *testing.T) {
	for _, bad := range [][]string{{"-n", "0"}, {"-batch", "0"}} {
		if err := run(context.Background(), bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestWorkersDrainJobAndExitWhenIdle(t *testing.T) {
	svc, err := service.New(service.Config{
		Topology:     service.Topology{Sites: 2, WorkersPerSite: 2, CapacityFiles: 50},
		NewScheduler: gridsched.SchedulerFactory(),
		LeaseTTL:     2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	w := &workload.Workload{Name: "drain", NumFiles: 8}
	for i := 0; i < 30; i++ {
		w.Tasks = append(w.Tasks, workload.Task{
			ID:    workload.TaskID(i),
			Files: []workload.FileID{workload.FileID(i % 8)},
		})
	}
	jobID, err := svc.SubmitJob(api.SubmitJobRequest{Name: "drain", Algorithm: "workqueue", Workload: w})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = run(ctx, []string{
		"-server", ts.URL,
		"-n", "3",
		"-quiet",
		"-exit-when-idle",
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.JobStatus(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.JobCompleted || st.Completed != 30 {
		t.Fatalf("job after workers exited: %+v", st)
	}
}

// TestFlagsMatchREADME: the flag set, names and defaults, is README's
// "gridworker flags" table.
func TestFlagsMatchREADME(t *testing.T) {
	fs, _ := flags()
	testkit.FlagsMatchTable(t, fs, "../../README.md", "**gridworker flags")
}
