// Live cluster: the same worker-centric scheduler that drives the
// simulator, running on real goroutines. A gridschedd service is embedded
// in the process and served in-process (client.InProcess, no sockets)
// behind the ingress chain a networked daemon fronts with; one
// client.RunWorker goroutine per worker slot is granted a task when idle
// (its lease stream has the default depth of one), waits
// out a synthetic staging latency for the files its site store had to
// fetch (standing in for the wide-area transfer), executes a real
// function, and replica cancellation flows through contexts.
//
//	go run ./examples/live-cluster
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"gridsched"
	"gridsched/internal/core"
	"gridsched/internal/middleware"
	"gridsched/internal/service/api"
	"gridsched/internal/service/client"
)

const (
	sites          = 4
	workersPerSite = 3
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("live-cluster: ")

	w, err := gridsched.NewCoaddWorkload(gridsched.DefaultCoaddSeed, 300)
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range []string{"workqueue", "rest", "combined.2"} {
		start := time.Now()
		st, checksum := drain(name, w)
		fmt.Printf("%-12s completed=%d transfers=%d cancelled=%d wall=%v checksum=%d\n",
			name, st.Completed, st.Transfers, st.Cancelled,
			time.Since(start).Round(time.Millisecond), checksum)
	}
	fmt.Println("\nnote: fewer transfers = better data reuse; the checksum is")
	fmt.Println("identical across strategies because every task runs exactly once.")
}

// drain runs w to completion under the named algorithm on a fresh embedded
// service and returns the job's final status and the checksum its tasks
// computed.
func drain(algorithm string, w *gridsched.Workload) (*api.JobStatus, uint64) {
	svc, err := gridsched.NewService(gridsched.ServiceConfig{
		Topology: gridsched.ServiceTopology{
			Sites:          sites,
			WorkersPerSite: workersPerSite,
			CapacityFiles:  2500,
		},
		LeaseTTL: 2 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()
	// The ingress chain contains a handler panic as a 500 the worker
	// retries, instead of unwinding this process, and traces every request.
	cl := client.InProcess(middleware.Ingress(middleware.Config{}, svc.Handler()))
	ctx := context.Background()
	jobID, err := cl.SubmitJob(ctx, "live", algorithm, 1, w)
	if err != nil {
		log.Fatal(err)
	}

	var checksum atomic.Uint64
	var wg sync.WaitGroup
	for s := 0; s < sites; s++ {
		for range workersPerSite {
			site := s
			wg.Add(1)
			go func() {
				defer wg.Done()
				err := cl.RunWorker(ctx, client.WorkerConfig{
					Site: &site,
					// Stand-in for the wide-area fetch: 50us per missing file.
					StageDelay: func(missing int) time.Duration {
						return time.Duration(missing) * 50 * time.Microsecond
					},
					// The "computation": fold the task's file ids into a checksum.
					Execute: func(_ context.Context, _ core.WorkerRef, a *api.Assignment) error {
						var sum uint64
						for _, f := range a.Task.Files {
							sum += uint64(f)
						}
						checksum.Add(sum)
						return nil
					},
					// The service hosts this one job, so "no open jobs" and
					// "job completed" coincide.
					OnIdle: func(_ context.Context, openJobs int) (bool, error) {
						return openJobs == 0, nil
					},
					OnReport: func(_ context.Context, _ *api.Assignment, _ string, rep *api.ReportResponse) bool {
						return rep.JobState == api.JobCompleted
					},
				})
				if err != nil {
					log.Fatal(err)
				}
			}()
		}
	}
	wg.Wait()
	st, err := cl.Job(ctx, jobID)
	if err != nil {
		log.Fatal(err)
	}
	if st.State != api.JobCompleted {
		log.Fatalf("%s: %d tasks incomplete after every worker exited", algorithm, st.Remaining)
	}
	return st, checksum.Load()
}
