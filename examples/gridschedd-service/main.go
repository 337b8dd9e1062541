// Scheduler service: gridschedd embedded in one process, with two
// workloads resident at once — a Coadd sweep under the paper's combined.2
// strategy and a uniform-sharing job under plain workqueue — and a fleet of
// protocol workers (register → lease stream, one task at a time → report)
// draining them concurrently over the HTTP/JSON protocol served on a real
// loopback listener. The same wiring works across machines: run
// cmd/gridschedd and point cmd/gridworker at it.
//
//	go run ./examples/gridschedd-service
package main

import (
	"context"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"gridsched"
	"gridsched/internal/core"
	"gridsched/internal/service/api"
	"gridsched/internal/service/client"
	"gridsched/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gridschedd-service: ")

	svc, err := gridsched.NewService(gridsched.ServiceConfig{
		Topology: gridsched.ServiceTopology{
			Sites:          4,
			WorkersPerSite: 2,
			CapacityFiles:  2500,
		},
		LeaseTTL: 3 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	log.Printf("daemon listening on %s", base)

	cl := client.New(base, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Job 1: a Coadd sweep under the paper's headline strategy.
	coadd, err := gridsched.NewCoaddWorkload(gridsched.DefaultCoaddSeed, 200)
	if err != nil {
		log.Fatal(err)
	}
	// Tenant "astro" carries twice the fair-share weight of "analytics":
	// over the contended 8-worker pool the service dispatches the two jobs
	// at a 2:1 rate while both have runnable work.
	coaddJob, err := cl.SubmitTenantJob(ctx, "astro", 2, "coadd-sweep", "combined.2", 1, coadd)
	if err != nil {
		log.Fatal(err)
	}

	// Job 2: a uniform-sharing workload under the FIFO baseline.
	uniform, err := workload.GenerateUniform(workload.UniformConfig{
		Seed: 7, Tasks: 150, Files: 1500, MinFiles: 4, MaxFiles: 12,
	})
	if err != nil {
		log.Fatal(err)
	}
	uniformJob, err := cl.SubmitTenantJob(ctx, "analytics", 1, "uniform", "workqueue", 2, uniform)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("submitted jobs %s (combined.2, tenant astro w=2) and %s (workqueue, tenant analytics w=1)",
		coaddJob, uniformJob)

	// A fleet of 8 protocol workers; each "execution" hashes the task's
	// file ids for a few hundred microseconds.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := cl.RunWorker(ctx, client.WorkerConfig{
				StageDelay: func(staged int) time.Duration {
					return 30 * time.Microsecond * time.Duration(staged)
				},
				Execute: func(execCtx context.Context, ref core.WorkerRef, a *api.Assignment) error {
					sum := uint64(0)
					for _, f := range a.Task.Files {
						sum = sum*1099511628211 + uint64(f)
					}
					_ = sum
					select {
					case <-execCtx.Done():
					case <-time.After(200 * time.Microsecond):
					}
					return nil
				},
				OnIdle: func(_ context.Context, openJobs int) (bool, error) {
					return openJobs == 0, nil
				},
			})
			if err != nil {
				log.Printf("worker: %v", err)
			}
		}()
	}
	wg.Wait()

	for _, id := range []string{coaddJob, uniformJob} {
		st, err := cl.Job(context.Background(), id)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("job %s (%s, %s): %d/%d tasks, %d transfers, %d expired leases, state %s",
			st.ID, st.Name, st.Algorithm, st.Completed, st.Tasks, st.Transfers, st.Expired, st.State)
	}
	tenants, err := cl.Tenants(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for _, ts := range tenants {
		log.Printf("tenant %q: %d dispatches, achieved share %.2f over the last window",
			ts.Tenant, ts.Dispatches, ts.ShareAchieved)
	}
}
