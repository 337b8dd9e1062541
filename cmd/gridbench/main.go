// Command gridbench compares the in-tree `go test` benchmarks of the
// working tree (head) with those of another commit (base), on one machine,
// in alternating pairs, and fails when head is consistently slower or
// allocates more.
//
// Usage:
//
//	gridbench [-bench re] [-out file] <base-rev>
//
// It checks out base-rev with `git worktree add --detach` under a temp dir
// (removed on exit), finds on each side the packages that declare a
// benchmark matching re, builds their test binaries with `go test -c`, and
// runs them in 10 pairs, base first in even pairs and head first in odd
// ones. Each run is
//
//	<pkg>.test -test.run '^$' -test.bench re -test.benchmem -test.benchtime 200ms
//
// from the package's directory. For every figure of every benchmark (ns/op,
// B/op, allocs/op and each b.ReportMetric unit) it prints both medians, the
// base's interquartile range and in how many pairs head's value was the
// higher. -out writes every run as JSON, with both commits, the host and
// the command line.
//
// The gate: gridbench exits non-zero when a benchmark fails on either side,
// or when for a benchmark on both sides
//   - head's ns/op is higher in at least signK of the pairs and its median
//     is more than signMin above base's (a sign test, p ≈ 0.01 at 9 of 10);
//   - head's median ns/op is more than medianMax above base's; or
//   - head's median allocs/op exceeds base's by more than allocSlack.
//
// A benchmark on one side only is reported, not gated.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

const (
	pairs     = 10
	benchtime = "200ms"
	signK     = 9
	signMin   = 0.05
	medianMax = 0.25
)

// allocSlack is how far head's median allocs/op may rise above base's: 2
// allocs/op, or 1% of base's where that is more (the figure-sized
// benchmarks make ~10^5 allocations per op and move by a few between two
// runs of one binary).
func allocSlack(base float64) float64 {
	return max(2, math.Floor(base/100))
}

// A result is one benchmark's line of `go test -bench` output: its name
// without the -GOMAXPROCS suffix, and its figures by unit.
type result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Figures    map[string]float64 `json:"figures"`
	units      []string           // Figures' keys in printed order
}

// A run is one test binary's run on one side of one pair.
type run struct {
	Pair    int      `json:"pair"`
	Side    string   `json:"side"`
	Package string   `json:"package"`
	Seconds float64  `json:"seconds"`
	Results []result `json:"results"`
	Failed  []string `json:"failed,omitempty"`
	Error   string   `json:"error,omitempty"`
}

type commit struct {
	Rev    string `json:"rev"`
	Commit string `json:"commit"`
	Dirty  bool   `json:"dirty,omitempty"`
}

type report struct {
	Command    []string `json:"command"`
	Base       commit   `json:"base"`
	Head       commit   `json:"head"`
	Host       string   `json:"host"`
	NumCPU     int      `json:"numCPU"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Runs       []run    `json:"runs"`
	Failures   []string `json:"failures,omitempty"`
}

// A side is one tree under comparison and its built test binaries.
type side struct {
	name string
	dir  string            // module root
	pkgs map[string]string // import path → package directory
	bins map[string]string // import path → test binary
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := compare(ctx, os.Args, os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridbench:", err)
		os.Exit(1)
	}
}

func compare(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gridbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", ".", "regexp selecting the benchmarks, as for go test -bench")
	out := fs.String("out", "", "write every run and every failure to this JSON file")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("usage: gridbench [-bench re] [-out file] <base-rev>")
	}
	top, err := regexp.Compile(topLevel(*bench))
	if err != nil {
		return fmt.Errorf("bad -bench regexp: %w", err)
	}

	rep := report{
		Command:    args,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	rep.Host, _ = os.Hostname() // a label only: none is recorded as ""
	headDir, err := output(ctx, ".", "git", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	rep.Head = commit{Rev: "HEAD"}
	if rep.Head.Commit, err = output(ctx, headDir, "git", "rev-parse", "HEAD"); err != nil {
		return err
	}
	status, err := output(ctx, headDir, "git", "status", "--porcelain")
	if err != nil {
		return err
	}
	rep.Head.Dirty = status != ""
	rep.Base = commit{Rev: fs.Arg(0)}
	if rep.Base.Commit, err = output(ctx, headDir, "git", "rev-parse", "--verify", fs.Arg(0)+"^{commit}"); err != nil {
		return err
	}

	tmp, err := os.MkdirTemp("", "gridbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	baseDir := filepath.Join(tmp, "base")
	if _, err := output(ctx, headDir, "git", "worktree", "add", "--detach", baseDir, rep.Base.Commit); err != nil {
		return err
	}
	defer func() {
		// The context may be cancelled already: remove the worktree anyway.
		if _, err := output(context.Background(), headDir, "git", "worktree", "remove", "--force", baseDir); err != nil {
			fmt.Fprintln(stderr, "gridbench:", err)
		}
	}()

	sides := []*side{{name: "base", dir: baseDir}, {name: "head", dir: headDir}}
	var pkgs []string
	for _, s := range sides {
		if s.pkgs, err = benchPackages(ctx, s.dir, top); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		s.bins = map[string]string{}
		for pkg := range s.pkgs {
			bin := filepath.Join(tmp, s.name, strings.ReplaceAll(pkg, "/", "_")+".test")
			fmt.Fprintf(stderr, "building %s %s\n", s.name, pkg)
			if _, err := output(ctx, s.dir, "go", "test", "-c", "-vet=off", "-o", bin, pkg); err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			s.bins[pkg] = bin
			if !slices.Contains(pkgs, pkg) {
				pkgs = append(pkgs, pkg)
			}
		}
	}
	if len(pkgs) == 0 {
		return fmt.Errorf("no benchmark matches %q on either side", *bench)
	}
	slices.Sort(pkgs)

	for p := 0; p < pairs && len(rep.Failures) == 0; p++ {
		order := sides
		if p%2 == 1 {
			order = []*side{sides[1], sides[0]}
		}
		for _, pkg := range pkgs {
			for _, s := range order {
				if s.bins[pkg] == "" {
					continue
				}
				r, err := runBinary(ctx, s, pkg, *bench)
				if err != nil {
					return err
				}
				r.Pair = p
				fmt.Fprintf(stderr, "pair %d/%d %s %s: %.1fs\n", p+1, pairs, s.name, pkg, r.Seconds)
				rep.Runs = append(rep.Runs, r)
				for _, name := range r.Failed {
					rep.Failures = append(rep.Failures, fmt.Sprintf("%s %s failed on %s", pkg, name, s.name))
				}
				if r.Error != "" && len(r.Failed) == 0 {
					rep.Failures = append(rep.Failures, fmt.Sprintf("%s failed on %s: %s", pkg, s.name, r.Error))
				}
				if r.Error != "" {
					fmt.Fprintln(stderr, r.Error)
				}
			}
		}
	}

	figs := summarise(rep.Runs)
	printTable(stdout, figs)
	for _, f := range figs {
		if why := f.gate(); why != "" {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s %s: %s", f.bench, f.unit, why))
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(rep.Failures) > 0 {
		return fmt.Errorf("head %s against base %s:\n  %s", rep.Head.Commit[:12], rep.Base.Commit[:12],
			strings.Join(rep.Failures, "\n  "))
	}
	return nil
}

// output runs a command in dir and returns its trimmed standard output,
// or an error carrying its standard error.
func output(ctx context.Context, dir, name string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s %s: %w: %s", name, strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

// topLevel returns the part of a -bench regexp that go test matches against
// top-level benchmark names: everything before the first '/' outside
// brackets and parentheses.
func topLevel(re string) string {
	depth := 0
	for i := 0; i < len(re); i++ {
		switch re[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '/':
			if depth == 0 {
				return re[:i]
			}
		}
	}
	return re
}

var benchFunc = regexp.MustCompile(`(?m)^func (Benchmark\w*)\(`)

// benchPackages returns, by import path, the directory of every package of
// the module at dir with a test file declaring a benchmark whose name top
// matches.
func benchPackages(ctx context.Context, dir string, top *regexp.Regexp) (map[string]string, error) {
	list, err := output(ctx, dir, "go", "list", "-f",
		`{{.ImportPath}}{{"\t"}}{{.Dir}}{{range .TestGoFiles}}{{"\t"}}{{.}}{{end}}{{range .XTestGoFiles}}{{"\t"}}{{.}}{{end}}`, "./...")
	if err != nil {
		return nil, err
	}
	pkgs := map[string]string{}
	for _, line := range strings.Split(list, "\n") {
		f := strings.Split(line, "\t")
		if len(f) < 3 {
			continue // no test files
		}
		for _, file := range f[2:] {
			src, err := os.ReadFile(filepath.Join(f[1], file))
			if err != nil {
				return nil, err
			}
			for _, m := range benchFunc.FindAllSubmatch(src, -1) {
				if top.Match(m[1]) {
					pkgs[f[0]] = f[1]
				}
			}
		}
	}
	return pkgs, nil
}

// runBinary runs pkg's test binary on side s. A failing binary is not an
// error: its failure is recorded in the run.
func runBinary(ctx context.Context, s *side, pkg, bench string) (run, error) {
	cmd := exec.CommandContext(ctx, s.bins[pkg], "-test.run", "^$", "-test.bench", bench,
		"-test.benchmem", "-test.benchtime", benchtime, "-test.timeout", "10m")
	cmd.Dir = s.pkgs[pkg]
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	r := run{Side: s.name, Package: pkg, Seconds: time.Since(start).Seconds()}
	if ctx.Err() != nil {
		return r, ctx.Err()
	}
	r.Results, r.Failed = parseResults(bytes.NewReader(stdout.Bytes()), runtime.GOMAXPROCS(0))
	if err != nil {
		r.Error = fmt.Sprintf("%v\n%s%s", err, tail(stdout.String(), 20), tail(stderr.String(), 20))
	}
	return r, nil
}

// tail returns the last n lines of s.
func tail(s string, n int) string {
	lines := strings.SplitAfter(s, "\n")
	return strings.Join(lines[max(0, len(lines)-n):], "")
}

// parseResults reads `go test -bench` output: each result line's name,
// stripped of the "-procs" suffix go test adds when procs > 1, iteration
// count and value-unit pairs in any order; and the name of each benchmark
// a "--- FAIL:" line reports.
func parseResults(r io.Reader, procs int) (results []result, failed []string) {
	suffix := "-" + strconv.Itoa(procs)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "--- FAIL: "); ok {
			name, _, _ = strings.Cut(name, " ")
			failed = append(failed, strings.TrimSuffix(name, suffix))
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		n, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		res := result{Name: f[0], Iterations: n, Figures: map[string]float64{}}
		if procs > 1 {
			res.Name = strings.TrimSuffix(res.Name, suffix)
		}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				res.Figures = nil
				break
			}
			res.Figures[f[i+1]] = v
			res.units = append(res.units, f[i+1])
		}
		if res.Figures != nil {
			results = append(results, res)
		}
	}
	return results, failed
}

// A figure is one unit of one benchmark: base's and head's value in each
// pair, NaN where that side has none.
type figure struct {
	bench, unit string
	base, head  [pairs]float64
}

// summarise collects every figure of runs, in the order they first appear.
func summarise(runs []run) []*figure {
	var figs []*figure
	byKey := map[string]*figure{}
	for _, r := range runs {
		for _, res := range r.Results {
			for _, unit := range res.units {
				key := r.Package + " " + res.Name + " " + unit
				f := byKey[key]
				if f == nil {
					f = &figure{bench: strings.TrimPrefix(res.Name, "Benchmark"), unit: unit}
					for i := range pairs {
						f.base[i], f.head[i] = math.NaN(), math.NaN()
					}
					byKey[key] = f
					figs = append(figs, f)
				}
				if r.Side == "base" {
					f.base[r.Pair] = res.Figures[unit]
				} else {
					f.head[r.Pair] = res.Figures[unit]
				}
			}
		}
	}
	return figs
}

// higher counts the pairs with both values where head's is the higher, and
// the pairs with both.
func (f *figure) higher() (k, n int) {
	for i := range pairs {
		if !math.IsNaN(f.base[i]) && !math.IsNaN(f.head[i]) {
			n++
			if f.head[i] > f.base[i] {
				k++
			}
		}
	}
	return k, n
}

// gate returns why the figure fails the gate, or "" if it passes or is not
// gated.
func (f *figure) gate() string {
	k, n := f.higher()
	if n == 0 {
		return ""
	}
	base, head := quantile(f.base[:], 0.5), quantile(f.head[:], 0.5)
	switch f.unit {
	case "ns/op":
		if k >= signK && head > base*(1+signMin) {
			return fmt.Sprintf("slower in %d of %d pairs and median %+.1f%% (limit %d pairs and %+.0f%%)",
				k, n, (head/base-1)*100, signK, signMin*100)
		}
		if head > base*(1+medianMax) {
			return fmt.Sprintf("median %+.1f%% (limit %+.0f%%)", (head/base-1)*100, medianMax*100)
		}
	case "allocs/op":
		if limit := base + allocSlack(base); head > limit {
			return fmt.Sprintf("median %g → %g (limit %g)", base, head, limit)
		}
	}
	return ""
}

// quantile returns the q-quantile of the values that are not NaN,
// interpolating linearly between order statistics; NaN if there are none.
func quantile(values []float64, q float64) float64 {
	var v []float64
	for _, x := range values {
		if !math.IsNaN(x) {
			v = append(v, x)
		}
	}
	if len(v) == 0 {
		return math.NaN()
	}
	slices.Sort(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo == len(v)-1 {
		return v[lo]
	}
	return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
}

func printTable(w io.Writer, figs []*figure) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tunit\tbase median\thead median\tdelta\tbase IQR\thead higher\tverdict")
	for _, f := range figs {
		k, n := f.higher()
		base, head := quantile(f.base[:], 0.5), quantile(f.head[:], 0.5)
		delta, verdict := fmt.Sprintf("%+.1f%%", (head/base-1)*100), "ok"
		if head == base {
			delta = "0%"
		}
		switch {
		case n == 0:
			delta, verdict = "-", "one side only"
		case f.gate() != "":
			verdict = "FAIL"
		case f.unit != "ns/op" && f.unit != "allocs/op":
			verdict = "ungated"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s–%s\t%d/%d\t%s\n", f.bench, f.unit, num(base), num(head),
			delta, num(quantile(f.base[:], 0.25)), num(quantile(f.base[:], 0.75)), k, n, verdict)
	}
	tw.Flush()
}

// num formats a figure: whole numbers from 100 up, three significant
// digits below, "-" for none.
func num(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case math.Abs(v) >= 100:
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 3, 64)
}
