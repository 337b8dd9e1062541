// Command gridworker joins a gridschedd server as one or more workers. Each
// worker registers, opens a lease stream on which the server grants it
// tasks (by default one at a time: a worker is granted its next task when
// it is idle) and keeps their leases alive, "executes" them (a
// configurable per-file busy-sleep stands in for real work — embedders
// wanting real execution use internal/service/client.RunWorker with their
// own Execute), and reports outcomes.
//
// Shutdown is graceful: on SIGINT or SIGTERM the workers stop taking new
// work, finish (up to -drain) and report the tasks they hold, deregister,
// and exit — so an orchestrated restart hands no lease to the expiry
// sweeper. A second signal aborts immediately.
//
// Usage:
//
//	gridworker -server http://localhost:8080 -n 8
//	gridworker -server http://localhost:8080 -n 4 -site 2 -task-time 50ms -exit-when-idle
//	gridworker -server http://localhost:8080 -n 8 -drain 10s
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"gridsched/internal/core"
	"gridsched/internal/service/api"
	"gridsched/internal/service/client"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Print("gridworker: signal received; draining in-flight tasks (second signal aborts)")
		stop() // restore default handling: a second signal kills the process
	}()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gridworker:", err)
		os.Exit(1)
	}
}

// worker is what gridworker's flags set; the WorkerConfig fields a flag
// sets are declared onto it directly.
type worker struct {
	server, token, codec string
	n, site              int
	taskTime             time.Duration
	exitWhenIdle, quiet  bool
	cfg                  client.WorkerConfig
}

// flags declares gridworker's flag set over a worker holding its defaults.
func flags() (*flag.FlagSet, *worker) {
	w := &worker{}
	fs := flag.NewFlagSet("gridworker", flag.ContinueOnError)
	fs.StringVar(&w.server, "server", "http://localhost:8080", "gridschedd base URL")
	fs.IntVar(&w.n, "n", 1, "number of workers to run")
	fs.IntVar(&w.site, "site", -1, "pin workers to this site (-1: server balances)")
	fs.DurationVar(&w.taskTime, "task-time", 0, "simulated execution time per task file (e.g. 5ms)")
	fs.BoolVar(&w.exitWhenIdle, "exit-when-idle", false, "exit once no jobs remain open (at once if none is open yet)")
	fs.BoolVar(&w.quiet, "quiet", false, "suppress per-task logging")
	fs.DurationVar(&w.cfg.ReconnectWait, "reconnect", 0, "retry interval across server outages (0: fail fast)")
	fs.DurationVar(&w.cfg.DrainGrace, "drain", 30*time.Second, "on SIGINT/SIGTERM, let an in-flight task finish and report for up to this long (0: abort it immediately)")
	fs.StringVar(&w.token, "auth-token", "", "bearer token for a gridschedd running with -auth-tokens")
	fs.StringVar(&w.codec, "codec", "json", "wire codec: json or binary (strict, no silent fallback)")
	fs.IntVar(&w.cfg.StreamBatch, "batch", 1, "lease stream depth: how many tasks the server keeps granted to each worker")
	fs.Func("tags", "comma-separated capability tags to advertise (e.g. gpu,avx512)", func(s string) error {
		w.cfg.Tags = splitTags(s)
		return nil
	})
	return fs, w
}

func run(ctx context.Context, args []string) error {
	fs, wk := flags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if wk.n < 1 {
		return fmt.Errorf("-n = %d", wk.n)
	}
	if wk.cfg.StreamBatch < 1 {
		return fmt.Errorf("-batch = %d", wk.cfg.StreamBatch)
	}

	cl := client.New(wk.server, nil)
	cl.AuthToken = wk.token
	if err := cl.SetCodec(wk.codec); err != nil {
		return err
	}
	var wg sync.WaitGroup
	errs := make(chan error, wk.n)
	for i := 0; i < wk.n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := wk.cfg
			cfg.Execute = func(execCtx context.Context, ref core.WorkerRef, a *api.Assignment) error {
				if d := wk.taskTime * time.Duration(len(a.Task.Files)); d > 0 {
					select {
					case <-execCtx.Done():
						return nil
					case <-time.After(d):
					}
				}
				if !wk.quiet {
					log.Printf("worker site %d/%d: task %d of job %s done (%d files, %d staged)",
						ref.Site, ref.Worker, a.Task.ID, a.JobID, len(a.Task.Files), a.Staged)
				}
				return nil
			}
			if wk.site >= 0 {
				cfg.Site = &wk.site
			}
			if wk.exitWhenIdle {
				cfg.OnIdle = func(_ context.Context, openJobs int) (bool, error) {
					return openJobs == 0, nil
				}
			}
			if err := cl.RunWorker(ctx, cfg); err != nil {
				// Surface immediately: with other workers still running,
				// wg.Wait() may not return for a long time.
				log.Printf("worker: %v", err)
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// splitTags parses the -tags flag, dropping empty elements so a trailing
// comma is harmless.
func splitTags(s string) []string {
	var tags []string
	for _, t := range strings.Split(s, ",") {
		if t = strings.TrimSpace(t); t != "" {
			tags = append(tags, t)
		}
	}
	return tags
}
