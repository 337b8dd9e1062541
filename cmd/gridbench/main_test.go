package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRunWritesReport exercises the full driver with a filter that matches
// no benchmark, which keeps the test fast while covering flag parsing, the
// report structure, and file output.
func TestRunWritesReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"-bench", "^nothing-matches$", "-out", out}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if rep.GoVersion == "" || rep.NumCPU < 1 {
		t.Fatalf("missing environment metadata: %+v", rep)
	}
	if len(rep.Results) != 0 {
		t.Fatalf("filter matched %d benchmarks, want 0", len(rep.Results))
	}
}

func TestRunRejectsBadRegexp(t *testing.T) {
	if err := run([]string{"-bench", "("}, os.Stdout); err == nil {
		t.Fatal("accepted malformed regexp")
	}
}

func writeBaseline(t *testing.T, results []result) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	data, err := json.Marshal(report{Results: results})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareBaseline pins the regression-guard arithmetic without running
// any real benchmark.
func TestCompareBaseline(t *testing.T) {
	base := writeBaseline(t, []result{
		{Name: "A", NsPerOp: 1000},
		{Name: "B", NsPerOp: 1000},
	})
	within := []result{
		{Name: "A", NsPerOp: 1200},   // +20% <= 25%: fine
		{Name: "B", NsPerOp: 900},    // faster: fine
		{Name: "New", NsPerOp: 5000}, // not in baseline: skipped
	}
	if err := compareBaseline(os.Stdout, base, within, 0.25); err != nil {
		t.Fatalf("within-threshold run failed the guard: %v", err)
	}
	over := []result{{Name: "A", NsPerOp: 1300}} // +30% > 25%
	if err := compareBaseline(os.Stdout, base, over, 0.25); err == nil {
		t.Fatal("30% regression passed a 25% guard")
	}
	if err := compareBaseline(os.Stdout, filepath.Join(t.TempDir(), "missing.json"), over, 0.25); err == nil {
		t.Fatal("missing baseline file not reported")
	}
}

// TestCompareBaselineAllocs: allocs/op is gated too, by a constant slack —
// 2 allocs/op, or 1% of a large baseline — whatever the ns/op did.
func TestCompareBaselineAllocs(t *testing.T) {
	base := writeBaseline(t, []result{
		{Name: "Small", NsPerOp: 1000, AllocsPerOp: 14},
		{Name: "Large", NsPerOp: 1000, AllocsPerOp: 300_000},
	})
	within := []result{
		{Name: "Small", NsPerOp: 1000, AllocsPerOp: 16},
		{Name: "Large", NsPerOp: 1000, AllocsPerOp: 303_000},
	}
	if err := compareBaseline(os.Stdout, base, within, 0.25); err != nil {
		t.Fatalf("rises within the slack failed the guard: %v", err)
	}
	for _, over := range []result{
		{Name: "Small", NsPerOp: 500, AllocsPerOp: 17},
		{Name: "Large", NsPerOp: 500, AllocsPerOp: 303_001},
	} {
		if err := compareBaseline(os.Stdout, base, []result{over}, 0.25); err == nil {
			t.Fatalf("%s at %d allocs/op passed the guard", over.Name, over.AllocsPerOp)
		}
	}
}
