// Command gridbench runs the repository's performance benchmark suite
// outside `go test` and records the results as JSON, seeding the perf
// trajectory the ROADMAP asks for (BENCH_PR2.json and successors).
//
// Usage:
//
//	gridbench                  # run everything, write gridbench.json
//	gridbench -bench Figure    # filter by regexp
//	gridbench -out bench.json  # choose the output file
//	gridbench -baseline BENCH_PR8.json -max-regress 0.25
//	                           # regression guard: exit nonzero if any
//	                           # benchmark present in the baseline got
//	                           # more than 25% slower (ns/op), or makes
//	                           # more allocations per op than allocSlack
//	                           # allows
//
// Each entry records the benchmark name, iterations, ns/op, bytes/op and
// allocs/op, plus enough environment metadata to compare runs. The
// benchmark bodies are shared with the `go test -bench` entry points
// (internal/benchsuite), which CI smoke-runs with -benchtime=1x, so the
// recorded trajectory cannot drift from what the tests measure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"testing"

	"gridsched/internal/benchsuite"
	"gridsched/internal/journal"
)

type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	// Extra carries the benchmark's own b.ReportMetric values by unit
	// (e.g. ServiceSnapshotPause's "pause-ms/op").
	Extra map[string]float64 `json:"extra,omitempty"`
}

type report struct {
	GoVersion string   `json:"goVersion"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	NumCPU    int      `json:"numCPU"`
	Results   []result `json:"results"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gridbench:", err)
		os.Exit(1)
	}
}

// run executes the selected benchmarks and writes the JSON report.
func run(args []string, stdout *os.File) error {
	fs := flag.NewFlagSet("gridbench", flag.ContinueOnError)
	var (
		out      = fs.String("out", "gridbench.json", "output JSON file")
		filter   = fs.String("bench", "", "regexp selecting benchmarks to run (default: all)")
		baseline = fs.String("baseline", "", "baseline JSON to compare against (regression guard)")
		maxReg   = fs.Float64("max-regress", 0.25, "with -baseline: fail when ns/op regresses by more than this fraction")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	benchmarks := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"Figure4", benchsuite.Experiment("figure4")},
		{"Figure6", benchsuite.Experiment("figure6")},
		{"SchedulerRequest/overlap", benchsuite.SchedulerRequest("overlap")},
		{"SchedulerRequest/rest", benchsuite.SchedulerRequest("rest")},
		{"SchedulerRequest/combined", benchsuite.SchedulerRequest("combined")},
		{"SchedulerRequest/combined.2", benchsuite.SchedulerRequest("combined.2")},
		{"StorageAffinityDraft", benchsuite.StorageAffinityDraft},
		{"SimProcessSwitch", benchsuite.SimProcessSwitch},
		{"EndToEndSimulation", benchsuite.EndToEndSimulation},
		{"WorkloadGeneration", benchsuite.WorkloadGeneration},
		{"ServiceDispatchInProcess", benchsuite.ServiceDispatchInProcess},
		{"ServiceDispatchIngress", benchsuite.ServiceDispatchIngress},
		{"ServiceDispatchContended", benchsuite.ServiceDispatchContended},
		{"ServiceDispatchSpeculative", benchsuite.ServiceDispatchSpeculative},
		{"ServiceDispatchParallel/shards=1", benchsuite.ServiceDispatchParallel(1)},
		{"ServiceDispatchParallel/shards=8", benchsuite.ServiceDispatchParallel(8)},
		{"ServiceDispatchJournaled/batch", benchsuite.ServiceDispatchJournaled(journal.SyncBatch)},
		{"ServiceDispatchJournaled/always", benchsuite.ServiceDispatchJournaled(journal.SyncAlways)},
		{"ServiceDispatchWire/jsonpoll", benchsuite.ServiceDispatchWireJSON},
		{"ServiceDispatchWire/stream", benchsuite.ServiceDispatchWireStream},
		{"ServiceDispatchPartitioned/parts=1", benchsuite.ServiceDispatchPartitioned(1)},
		{"ServiceDispatchPartitioned/parts=2", benchsuite.ServiceDispatchPartitioned(2)},
		{"ServiceDispatchPartitioned/parts=4", benchsuite.ServiceDispatchPartitioned(4)},
		{"ServiceSnapshotPause/jobs=1", benchsuite.ServiceSnapshotPause(1)},
		{"ServiceSnapshotPause/jobs=4", benchsuite.ServiceSnapshotPause(4)},
		{"ServiceSnapshotPause/jobs=16", benchsuite.ServiceSnapshotPause(16)},
		{"ServiceRecovery/jobs=1", benchsuite.ServiceRecovery(1)},
		{"ServiceRecovery/jobs=4", benchsuite.ServiceRecovery(4)},
		{"ServiceRecovery/jobs=16", benchsuite.ServiceRecovery(16)},
	}

	var re *regexp.Regexp
	if *filter != "" {
		var err error
		if re, err = regexp.Compile(*filter); err != nil {
			return fmt.Errorf("bad -bench regexp: %w", err)
		}
	}

	rep := report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	for _, bm := range benchmarks {
		if re != nil && !re.MatchString(bm.name) {
			continue
		}
		r := testing.Benchmark(bm.fn)
		res := result{
			Name:        bm.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Extra:       r.Extra,
		}
		rep.Results = append(rep.Results, res)
		fmt.Fprintf(stdout, "%-28s %10d iter %14.0f ns/op %10d B/op %8d allocs/op",
			res.Name, res.Iterations, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
		units := make([]string, 0, len(res.Extra))
		for unit := range res.Extra {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			fmt.Fprintf(stdout, " %12.4g %s", res.Extra[unit], unit)
		}
		fmt.Fprintln(stdout)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "wrote", *out)
	if *baseline != "" {
		return compareBaseline(stdout, *baseline, rep.Results, *maxReg)
	}
	return nil
}

// allocSlack is how far a benchmark's allocs/op may rise above the
// baseline's: 2 allocs/op, or 1% of the baseline where that is more (the
// figure-sized benchmarks make ~10^5 allocations per op and move by a few
// between two runs of one binary). Allocation counts do not depend on the
// runner, so unlike the ns/op limit this one is not a flag.
func allocSlack(base int64) int64 {
	return max(2, base/100)
}

// compareBaseline is the CI regression guard: every benchmark present in
// both the baseline and this run must stay within (1+maxRegress)× the
// baseline ns/op and within allocSlack of its allocs/op. Benchmarks only on
// one side are reported and skipped — new benchmarks get a baseline when
// the committed file is next refreshed.
func compareBaseline(stdout *os.File, path string, results []result, maxRegress float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	baseBy := make(map[string]result, len(base.Results))
	for _, r := range base.Results {
		baseBy[r.Name] = r
	}
	failures := 0
	for _, r := range results {
		b, ok := baseBy[r.Name]
		if !ok || b.NsPerOp <= 0 {
			fmt.Fprintf(stdout, "%-28s not in baseline; skipped\n", r.Name)
			continue
		}
		ratio := r.NsPerOp/b.NsPerOp - 1
		verdict := "ok"
		if ratio > maxRegress {
			verdict = "REGRESSION"
			failures++
		}
		fmt.Fprintf(stdout, "%-28s %+7.1f%% vs baseline (%.0f -> %.0f ns/op, limit +%.0f%%) %s\n",
			r.Name, ratio*100, b.NsPerOp, r.NsPerOp, maxRegress*100, verdict)
		if limit := b.AllocsPerOp + allocSlack(b.AllocsPerOp); r.AllocsPerOp > limit {
			failures++
			fmt.Fprintf(stdout, "%-28s %d -> %d allocs/op (limit %d) REGRESSION\n", r.Name, b.AllocsPerOp, r.AllocsPerOp, limit)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d benchmark figure(s) regressed versus %s (ns/op limit +%.0f%%)", failures, path, maxRegress*100)
	}
	return nil
}
