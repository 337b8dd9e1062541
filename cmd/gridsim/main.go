// Command gridsim runs a single configured grid simulation and prints a
// summary: makespan, transfer counts, and the per-site data-server
// breakdown.
//
// Usage:
//
//	gridsim -alg combined.2 -tasks 6000 -sites 10 -workers 1 -capacity 6000
//	gridsim -alg "task-centric storage affinity" -capacity 3000 -json
//	gridsim -trace workload.json -alg rest
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"gridsched"
	"gridsched/internal/trace"
	"gridsched/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gridsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gridsim", flag.ContinueOnError)
	var (
		alg       = fs.String("alg", "combined.2", "scheduling algorithm (see -algs)")
		listAlgs  = fs.Bool("algs", false, "list algorithm names and exit")
		tasks     = fs.Int("tasks", 6000, "coadd tasks (ignored with -trace)")
		tracePath = fs.String("trace", "", "JSON workload trace to simulate instead of synthetic coadd")
		coaddSeed = fs.Int64("coadd-seed", gridsched.DefaultCoaddSeed, "synthetic trace seed")
		sites     = fs.Int("sites", 10, "participating sites")
		workers   = fs.Int("workers", 1, "workers per site")
		capacity  = fs.Int("capacity", 6000, "data-server capacity in files")
		fileMB    = fs.Float64("file-mb", 25, "file size in MB")
		seed      = fs.Int64("seed", 1, "topology + worker-speed seed")
		asJSON    = fs.Bool("json", false, "emit the full result as JSON")
		traceOut  = fs.String("events", "", "write the run's event timeline as JSON lines to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listAlgs {
		for _, name := range gridsched.AlgorithmNames() {
			fmt.Fprintln(stdout, name)
		}
		return nil
	}

	var w *gridsched.Workload
	var err error
	if *tracePath != "" {
		w, err = workload.LoadFile(*tracePath)
	} else {
		w, err = gridsched.NewCoaddWorkload(*coaddSeed, *tasks)
	}
	if err != nil {
		return err
	}

	cfg := gridsched.SimulationConfig{
		Workload:       w,
		Sites:          *sites,
		WorkersPerSite: *workers,
		CapacityFiles:  *capacity,
		FileSizeBytes:  *fileMB * 1e6,
		SpeedSeed:      *seed,
	}
	cfg.Topology.Seed = *seed

	var traceFlush func() error
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		jw := trace.NewJSONWriter(f)
		cfg.Tracer = jw
		traceFlush = jw.Flush
	}

	res, err := gridsched.RunSimulation(cfg, *alg)
	if err != nil {
		return err
	}
	if traceFlush != nil {
		if err := traceFlush(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *traceOut)
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}

	m := res.Metrics
	fmt.Fprintf(stdout, "workload:            %s (%d tasks, %d files)\n", w.Name, len(w.Tasks), w.NumFiles)
	fmt.Fprintf(stdout, "algorithm:           %s\n", res.Scheduler)
	fmt.Fprintf(stdout, "makespan:            %.0f minutes (%.1f days)\n", res.MakespanMinutes(), res.MakespanMinutes()/60/24)
	fmt.Fprintf(stdout, "file transfers:      %d total, %d redundant (%.1f GB fetched)\n",
		m.TotalFileTransfers(), m.RedundantTransfers(), m.TotalBytesFetched()/1e9)
	fmt.Fprintf(stdout, "cancelled replicas:  %d\n", m.CancelledExecutions)
	fmt.Fprintf(stdout, "kernel events:       %d\n", res.WallEvents)
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "site  requests  transfers  wait(h)  fetch(h)  executed  completed")
	for i := range m.Sites {
		s := &m.Sites[i]
		fmt.Fprintf(stdout, "%4d  %8d  %9d  %7.1f  %8.1f  %8d  %9d\n",
			i, s.Requests, s.FileTransfers, s.WaitTimeSum/3600, s.TransferTimeSum/3600, s.TasksExecuted, s.TasksCompleted)
	}
	return nil
}
