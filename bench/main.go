// Command bench is gridsched's end-to-end and per-layer benchmark. It builds
// cmd/gridschedd and cmd/gridrouter from the working tree, drives them as
// real child processes over loopback TCP with seeded workloads, checks what
// they answered, and prints every metric by name. README.md explains the
// workloads and metrics; BENCHMARK.json at the repository root is the
// machine-readable description.
//
// Run it through bench/run.sh (what BENCHMARK.json names), or from this
// directory with
//
//	go run . -workload stream_mem -seed 1              # one workload, end-to-end metrics
//	go run . -workload stream_mem -seed 1 -trace 1     # its per-layer metrics
//	go run . -seed 1                                   # all workloads
//	go run . -runs 5                                   # medians, quartiles and spread
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"text/tabwriter"
)

// env is what a workload run is given.
type env struct {
	sup      *supervisor
	workload string // the name of the workload being run
	seed     int64
	seconds  float64
	trace    bool
	// small shrinks task counts and durations so the smoke test can run
	// every workload in about a second; measurements taken with it mean
	// nothing.
	small bool
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int64
	// violations are correctness failures; any makes the run incorrect.
	violations []string
	// metrics holds every end-to-end metric (untraced run) or every
	// per-layer metric (traced run).
	metrics map[string]float64
	// notes are for the human table: sample counts and which percentile a
	// tail figure could support.
	notes []string
}

type workloadFunc func(ctx context.Context, e *env) (*outcome, error)

var workloads = map[string]workloadFunc{
	wlStreamMem:      runStreamMem,
	wlDurableCoadd:   runDurableCoadd,
	wlDurableRecover: runDurableRecover,
	wlSubmitPoll:     runSubmitPoll,
	wlPaperSweep:     runPaperSweep,
}

// metricValue and result are the driver's output contract: the last line of
// standard output is one result object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Workload  string                 `json:"workload,omitempty"` // only when several workloads run
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// toResult checks that o carries exactly the metrics of specs and attaches
// their units.
func toResult(o *outcome, specs []metricSpec) (result, error) {
	r := result{Correct: len(o.violations) == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metricValue, len(specs))}
	for _, s := range specs {
		v, ok := o.metrics[s.name]
		if !ok {
			return r, fmt.Errorf("workload did not report %s", s.name)
		}
		r.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	for name := range o.metrics {
		if _, ok := r.Metrics[name]; !ok {
			return r, fmt.Errorf("workload reported unknown metric %s", name)
		}
	}
	if r.Attempted < 1 {
		return r, fmt.Errorf("workload attempted no operation")
	}
	return r, nil
}

func specsFor(trace bool) []metricSpec {
	if trace {
		return perLayer
	}
	return endToEnd
}

// runOne runs one workload once and returns its result.
func runOne(ctx context.Context, e *env, name string) (result, *outcome, error) {
	fn, ok := workloads[name]
	if !ok {
		return result{}, nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	re := *e
	re.workload = name
	var before float64
	if !re.trace && !re.small {
		before = hostSpeed()
	}
	o, err := fn(ctx, &re)
	if err != nil {
		return result{}, nil, fmt.Errorf("%s: %w", name, err)
	}
	r, err := toResult(o, specsFor(e.trace))
	if err != nil {
		return r, o, fmt.Errorf("%s: %w", name, err)
	}
	if before > 0 {
		// End-to-end times are reported in reference seconds (calib.go).
		after := hostSpeed()
		factor := (before + after) / 2 / calibrationRef
		raw := make([]string, 0, len(r.Metrics))
		for _, s := range endToEnd {
			mv := r.Metrics[s.name]
			if ref := toReference(mv.Value, s.unit, factor); ref != mv.Value {
				raw = append(raw, fmt.Sprintf("%s %.6g", s.name, mv.Value))
				mv.Value = ref
				r.Metrics[s.name] = mv
			}
		}
		o.notes = append(o.notes, fmt.Sprintf("host factor %.3f (calibration %.1f ms before, %.1f ms after, reference %.1f ms); as measured on the wall clock: %s",
			factor, before*1e3, after*1e3, calibrationRef*1e3, strings.Join(raw, ", ")))
	}
	return r, o, nil
}

// printTable writes the human-readable form of one result to stderr.
func printTable(name string, e *env, r result, o *outcome) {
	fmt.Fprintf(os.Stderr, "\n== %s  seed=%d seconds=%g trace=%v  correct=%v attempted=%d failed=%d\n",
		name, e.seed, e.seconds, e.trace, r.Correct, r.Attempted, r.Failed)
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tbetter\tbound")
	for _, s := range specsFor(e.trace) {
		bound := "-"
		if s.bound > 0 {
			bound = fmt.Sprintf("%.0f%%", s.bound*100)
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%s\n", s.name, r.Metrics[s.name].Value, s.unit, s.better, bound)
	}
	tw.Flush()
	for _, n := range o.notes {
		fmt.Fprintln(os.Stderr, "  note:", n)
	}
	for _, v := range o.violations {
		fmt.Fprintln(os.Stderr, "  VIOLATION:", v)
	}
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced in-process run")
		runs     = flag.Int("runs", 1, "repeat the selected workloads this many times, alternating their order, and print per-metric median, quartiles and spread")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments:", flag.Args())
		return 2
	}
	if *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -runs must be positive, -trace 0 or 1")
		return 2
	}
	// The load generator is sized for a small box: more threads would only
	// add scheduling noise. The per-layer run hosts the daemons in this
	// process too, which the end-to-end run gives a process — and so a set of
	// Ps — each; with the same number here, in-process stream_mem loses two
	// thirds of its throughput to contention for Ps that no deployment has.
	procs := min(runtime.NumCPU(), 4)
	if *trace == 1 {
		procs *= 2
	}
	runtime.GOMAXPROCS(procs)

	selected := workloadNames
	if *workload != "all" {
		selected = []string{*workload}
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	sup, err := newSupervisor()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer sup.close()
	if err := sup.build(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "bench: build_s=%.3f nproc=%d gomaxprocs=%d %s\n",
		sup.buildS, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	e := &env{sup: sup, seed: *seed, seconds: *seconds, trace: *trace == 1}
	if *runs > 1 {
		return repeat(ctx, e, selected, *runs)
	}
	status := 0
	for _, name := range selected {
		r, o, err := runOne(ctx, e, name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printTable(name, e, r, o)
		if len(selected) > 1 {
			r.Workload = name
		}
		line, err := json.Marshal(r)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
		if !r.Correct {
			status = 1
		}
	}
	return status
}

// repeat is the -runs mode: the A/A (and, across two checkouts, A/B) tool.
// It runs the selected workloads n times with seeds seed, seed+1, …,
// reversing the workload order on every other repetition so that no
// workload always runs on a warm or a cold machine, and prints per metric
// the median, the quartiles and the spread (q3-q1)/median the bounds are
// compared against.
func repeat(ctx context.Context, e *env, selected []string, n int) int {
	samples := make(map[string]map[string][]float64) // workload -> metric -> values
	status := 0
	for i := 0; i < n; i++ {
		order := append([]string(nil), selected...)
		if i%2 == 1 {
			for a, b := 0, len(order)-1; a < b; a, b = a+1, b-1 {
				order[a], order[b] = order[b], order[a]
			}
		}
		for _, name := range order {
			re := *e
			re.seed = e.seed + int64(i)
			r, o, err := runOne(ctx, &re, name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			printTable(name, &re, r, o)
			if !r.Correct {
				status = 1
			}
			if samples[name] == nil {
				samples[name] = make(map[string][]float64)
			}
			for m, v := range r.Metrics {
				samples[name][m] = append(samples[name][m], v.Value)
			}
		}
	}
	type row struct {
		Workload string    `json:"workload"`
		Metric   string    `json:"metric"`
		Unit     string    `json:"unit"`
		N        int       `json:"n"`
		Q1       float64   `json:"q1"`
		Median   float64   `json:"median"`
		Q3       float64   `json:"q3"`
		Spread   float64   `json:"spread"`
		Bound    float64   `json:"bound,omitempty"`
		Values   []float64 `json:"values"`
	}
	var rows []row
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "\nworkload\tmetric\tn\tq1\tmedian\tq3\tspread\tbound")
	for _, name := range selected {
		for _, s := range specsFor(e.trace) {
			vs := samples[name][s.name]
			q1, q2, q3 := quartiles(vs)
			rows = append(rows, row{name, s.name, s.unit, len(vs), q1, q2, q3, spread(vs), s.bound, vs})
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t%.2f%%\t%.0f%%\n",
				name, s.name, len(vs), q1, q2, q3, spread(vs)*100, s.bound*100)
		}
	}
	tw.Flush()
	line, err := json.Marshal(map[string]any{"runs": n, "seed": e.seed, "summary": rows})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return status
}
