package main

import (
	"context"
	"encoding/json"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// benchOutput is `go test -bench -benchmem` output as a 2-vCPU linux/amd64
// host prints it: the -2 suffix, sub-benchmarks, b.ReportMetric units
// before B/op, a failing benchmark and the PASS/FAIL lines.
const benchOutput = `goos: linux
goarch: amd64
pkg: gridsched
cpu: Intel(R) Xeon(R) Processor
BenchmarkSchedulerRequest/rest-2         	   95421	      2483 ns/op	       0 B/op	       0 allocs/op
BenchmarkSimProcessSwitch-2              	 1385546	       174.2 ns/op	       0 B/op	       0 allocs/op
BenchmarkServiceRecovery/jobs=1-2        	      10	  23289297 ns/op	    258305 events/s	        23.23 recover-ms/op	 8378264 B/op	    3693 allocs/op
BenchmarkServiceSnapshotPause/jobs=16-2  	      42	   5513020 ns/op	         1.204 pause-ms/op	   1203771 snapshot-B/op	  101624 B/op	     311 allocs/op
--- FAIL: BenchmarkDispatchRoundTripContended
    bench_test.go:131: submit alpha: boom
--- FAIL: BenchmarkServiceDispatchPartitioned/parts=2
    bench_test.go:530: partition refused
--- FAIL: BenchmarkServiceDispatchPartitioned
FAIL
exit status 1
FAIL	gridsched	0.178s
PASS
ok  	gridsched/internal/core	1.2s
`

func TestParseResults(t *testing.T) {
	results, failed := parseResults(strings.NewReader(benchOutput), 2)
	want := []result{
		{Name: "BenchmarkSchedulerRequest/rest", Iterations: 95421,
			Figures: map[string]float64{"ns/op": 2483, "B/op": 0, "allocs/op": 0}},
		{Name: "BenchmarkSimProcessSwitch", Iterations: 1385546,
			Figures: map[string]float64{"ns/op": 174.2, "B/op": 0, "allocs/op": 0}},
		{Name: "BenchmarkServiceRecovery/jobs=1", Iterations: 10,
			Figures: map[string]float64{"ns/op": 23289297, "events/s": 258305, "recover-ms/op": 23.23, "B/op": 8378264, "allocs/op": 3693}},
		{Name: "BenchmarkServiceSnapshotPause/jobs=16", Iterations: 42,
			Figures: map[string]float64{"ns/op": 5513020, "pause-ms/op": 1.204, "snapshot-B/op": 1203771, "B/op": 101624, "allocs/op": 311}},
	}
	if len(results) != len(want) {
		t.Fatalf("parsed %d results, want %d: %+v", len(results), len(want), results)
	}
	for i, r := range results {
		w := want[i]
		if r.Name != w.Name || r.Iterations != w.Iterations || !maps.Equal(r.Figures, w.Figures) {
			t.Errorf("result %d = %+v, want %+v", i, r, w)
		}
	}
	if got := results[2].units; !slices.Equal(got, []string{"ns/op", "events/s", "recover-ms/op", "B/op", "allocs/op"}) {
		t.Errorf("units in order %v", got)
	}
	wantFailed := []string{"BenchmarkDispatchRoundTripContended", "BenchmarkServiceDispatchPartitioned/parts=2", "BenchmarkServiceDispatchPartitioned"}
	if !reflect.DeepEqual(failed, wantFailed) {
		t.Errorf("failed = %q, want %q", failed, wantFailed)
	}

	// With GOMAXPROCS=1 go test adds no suffix, so none is stripped.
	results, _ = parseResults(strings.NewReader("BenchmarkWire/size-2 \t 10\t 5 ns/op\n"), 1)
	if len(results) != 1 || results[0].Name != "BenchmarkWire/size-2" {
		t.Errorf("procs=1: %+v", results)
	}
}

// pairsOf returns a figure of unit whose base is 100 in every pair and
// whose head is hi in the first k pairs and 99 in the rest.
func pairsOf(unit string, k int, hi float64) *figure {
	f := &figure{bench: "B", unit: unit}
	for i := range pairs {
		f.base[i], f.head[i] = 100, 99
		if i < k {
			f.head[i] = hi
		}
	}
	return f
}

func TestGate(t *testing.T) {
	oneSide := pairsOf("ns/op", 10, 200)
	for i := range pairs {
		oneSide.base[i] = math.NaN()
	}
	for _, tc := range []struct {
		name string
		f    *figure
		fail bool
	}{
		{"9/10 slower at +6%", pairsOf("ns/op", 9, 106), true},
		{"9/10 slower at +4%", pairsOf("ns/op", 9, 104), false},
		{"7/10 slower at +30%", pairsOf("ns/op", 7, 130), true},
		{"7/10 slower at +20%", pairsOf("ns/op", 7, 120), false},
		{"allocs above slack", pairsOf("allocs/op", 10, 103), true},
		{"allocs within slack", pairsOf("allocs/op", 10, 102), false},
		{"ungated unit", pairsOf("B/op", 10, 200), false},
		{"head only", oneSide, false},
	} {
		if why := tc.f.gate(); (why != "") != tc.fail {
			t.Errorf("%s: gate = %q, want failure %v", tc.name, why, tc.fail)
		}
	}
	if got := allocSlack(300_000); got != 3000 {
		t.Errorf("allocSlack(300000) = %g, want 1%%", got)
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, math.NaN(), 3, 2}
	for q, want := range map[float64]float64{0: 1, 0.25: 1.75, 0.5: 2.5, 0.75: 3.25, 1: 4} {
		if got := quantile(v, q); got != want {
			t.Errorf("quantile(%g) = %g, want %g", q, got, want)
		}
	}
	if !math.IsNaN(quantile([]float64{math.NaN()}, 0.5)) {
		t.Error("quantile of nothing is not NaN")
	}
}

func TestTopLevel(t *testing.T) {
	for re, want := range map[string]string{
		"Figure4$":                      "Figure4$",
		"ServiceRecovery/jobs=1$":       "ServiceRecovery",
		"(A/B|C)/x":                     "(A/B|C)",
		`Wire[/]stream/x`:               `Wire[/]stream`,
		`Escaped\/slash/sub`:            `Escaped\/slash`,
		"DispatchRoundTrip(InProcess)$": "DispatchRoundTrip(InProcess)$",
	} {
		if got := topLevel(re); got != want {
			t.Errorf("topLevel(%q) = %q, want %q", re, got, want)
		}
	}
}

// TestBenchPackages finds this module's benchmarks by name, without
// building anything.
func TestBenchPackages(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	for re, want := range map[string][]string{
		"DispatchRoundTrip(InProcess|Contended)$": {"gridsched/internal/service"},
		"Figure4$|ServiceRecovery":                {"gridsched"},
		"NoSuchBenchmark":                         nil,
	} {
		pkgs, err := benchPackages(context.Background(), root, regexp.MustCompile(re))
		if err != nil {
			t.Fatal(err)
		}
		if got := slices.Sorted(maps.Keys(pkgs)); !slices.Equal(got, want) {
			t.Errorf("%s: packages %q, want %q", re, got, want)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"gridbench"},
		{"gridbench", "a", "b"},
		{"gridbench", "-bench", "(", "HEAD"},
		{"gridbench", "-baseline", "x.json", "HEAD"},
	} {
		if err := compare(context.Background(), args, io.Discard, io.Discard); err == nil {
			t.Errorf("%q: accepted", args)
		}
	}
}

// TestRunWritesReport runs the whole tool on a throwaway repository: an
// A/A comparison of one benchmark passes and records every run, and a
// benchmark that fails on a dirty head fails the tool, by name.
func TestRunWritesReport(t *testing.T) {
	repo := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(repo, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	git := func(args ...string) {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-c", "user.name=t", "-c", "user.email=t@t"}, args...)...)
		cmd.Dir = repo
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
	}
	write("go.mod", "module m\n\ngo 1.24\n")
	write("m_test.go", `package m

import (
	"testing"
	"time"
)

func BenchmarkSleep(b *testing.B) {
	for range b.N {
		time.Sleep(time.Millisecond)
	}
}
`)
	git("init", "-q")
	git("add", ".")
	git("commit", "-qm", "base")
	t.Chdir(repo)

	out := filepath.Join(t.TempDir(), "ab.json")
	if err := compare(context.Background(), []string{"gridbench", "-out", out, "HEAD"}, io.Discard, io.Discard); err != nil {
		t.Fatalf("A/A comparison failed: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Base.Commit == "" || rep.Base.Commit != rep.Head.Commit || rep.Head.Dirty || rep.NumCPU < 1 || len(rep.Command) != 4 {
		t.Errorf("report header %+v", rep)
	}
	if len(rep.Runs) != 2*pairs {
		t.Fatalf("%d runs, want %d", len(rep.Runs), 2*pairs)
	}
	for i, r := range rep.Runs {
		first := "base"
		if r.Pair%2 == 1 {
			first = "head"
		}
		if r.Pair != i/2 || (i%2 == 0) != (r.Side == first) || len(r.Results) != 1 || r.Results[0].Name != "BenchmarkSleep" {
			t.Errorf("run %d: %+v", i, r)
		}
	}

	write("m_test.go", "package m\n\nimport \"testing\"\n\nfunc BenchmarkSleep(b *testing.B) { b.Fatal(\"broken\") }\n")
	var stderr strings.Builder
	err = compare(context.Background(), []string{"gridbench", "HEAD"}, io.Discard, &stderr)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkSleep failed on head") {
		t.Fatalf("a failing head benchmark gave %v", err)
	}
	if !strings.Contains(stderr.String(), "m_test.go:5: broken") {
		t.Errorf("the failure's log is not shown:\n%s", stderr.String())
	}
}
