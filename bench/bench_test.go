package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// benchmarkJSON mirrors the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesProgram keeps the machine-readable description
// and the program's own tables from drifting apart.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1..200 characters, is %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, program has %v", names, workloadNames)
	}
	var e2e []metricSpec
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit, m.Better, m.Bound})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, program has %v", e2e, endToEnd)
	}
	var layers []metricSpec
	for _, m := range b.PerLayer {
		layers = append(layers, metricSpec{m.Name, m.Unit, m.Better, 0})
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer differs between BENCHMARK.json and the program")
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	for name := range workloads {
		found := false
		for _, n := range workloadNames {
			found = found || n == name
		}
		if !found {
			t.Errorf("workload %s is runnable but not listed", name)
		}
	}
}

// TestSmoke runs every workload, end to end and traced, at toy size. It
// times nothing: it asserts the correctness checks pass and that each run
// reports exactly the metrics BENCHMARK.json names, each once, each with
// its unit.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	sup, err := newSupervisor()
	if err != nil {
		t.Fatal(err)
	}
	defer sup.close()
	if err := sup.build(ctx); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			label := name + "/end_to_end"
			if trace {
				label = name + "/per_layer"
			}
			t.Run(label, func(t *testing.T) {
				e := &env{sup: sup, seed: 7, seconds: 1, trace: trace, small: true}
				r, o, err := runOne(ctx, e, name)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range o.violations {
					t.Errorf("violation: %s", v)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
				}
				want := make(map[string]string)
				if trace {
					for _, m := range b.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range b.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("reported %d metrics, BENCHMARK.json names %d", len(r.Metrics), len(want))
				}
				for name, unit := range want {
					got, ok := r.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s not reported", name)
					case got.Unit != unit:
						t.Errorf("metric %s: unit %q, want %q", name, got.Unit, unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", name, got.Value)
					case !trace && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must never be 0", name, got.Value)
					}
				}
			})
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false}, {1000, 0.99, true}, {99, 0.9, false}, {100, 0.9, true},
		{10000, 0.999, true}, {9999, 0.999, false},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	if q := highestSupported(5000); q != 0.99 {
		t.Errorf("highestSupported(5000) = %v, want 0.99", q)
	}
	if q := highestSupported(50); q != 0 {
		t.Errorf("highestSupported(50) = %v, want 0", q)
	}
	// Too few samples for a p99: tail falls back to the maximum and says so.
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, ok := tail(xs, 0.99); ok || v != 199 {
		t.Errorf("tail(200 samples, p99) = %v, %v; want the maximum, unsupported", v, ok)
	}
	xs = make([]float64, 2001)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, ok := tail(xs, 0.99); !ok || v != 1980 {
		t.Errorf("tail(2001 samples, p99) = %v, %v; want 1980, supported", v, ok)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4),
// which is what the driver's spread check computes.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{2, 4, 4, 5, 7})
	if q1 != 3 || q2 != 4 || q3 != 6 {
		t.Errorf("quartiles = %v %v %v, want 3 4 6", q1, q2, q3)
	}
	if s := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); s != 1 {
		t.Errorf("spread = %v, want 1", s)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanClient, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: spanRouter, Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: spanIngress, Start: 20, End: 80},
		// Two overlapping children and one that sticks out past its parent:
		// covered time is counted once and clipped to the parent.
		{ID: 4, Parent: 3, Name: spanService, Start: 30, End: 50},
		{ID: 5, Parent: 3, Name: spanService, Start: 40, End: 60},
		{ID: 6, Parent: 3, Name: spanService, Start: 70, End: 95},
		// No parent recorded: a root of its own.
		{ID: 7, Name: spanCore, Start: 5, End: 6},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 20, 2: 20, 3: 20, 4: 20, 5: 20, 6: 25, 7: 1}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	aggs := aggregate(spans)
	if a := get(aggs, spanService, ""); a.n != 3 || a.durNs != 65 || a.selfNs != 65 {
		t.Errorf("service aggregate = %+v", *a)
	}
}

func TestPoissonScheduleDeterministic(t *testing.T) {
	horizon := 10 * time.Second
	a := poissonSchedule(42, submitRate, horizon, pollPartitions)
	b := poissonSchedule(42, submitRate, horizon, pollPartitions)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	c := poissonSchedule(43, submitRate, horizon, pollPartitions)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if want := int(submitRate * horizon.Seconds()); len(a) != want {
		t.Fatalf("%d arrivals, want %d", len(a), want)
	}
	large, perPart := 0, make([]int, pollPartitions)
	var last time.Duration
	for i, ar := range a {
		if ar.due < last || ar.due >= horizon {
			t.Fatalf("arrival %d due at %v (previous %v, horizon %v)", i, ar.due, last, horizon)
		}
		last = ar.due
		if ar.large {
			large++
		}
		perPart[ar.part]++
		if ar.submissionID == "" {
			t.Fatalf("arrival %d has no submission id", i)
		}
	}
	if large != len(a)/10 {
		t.Errorf("%d large jobs of %d, want exactly one in ten", large, len(a))
	}
	if d := perPart[0] - perPart[1]; d < -1 || d > 1 {
		t.Errorf("partitions got %v jobs; want an even split", perPart)
	}
}

func TestOpStatsDecimation(t *testing.T) {
	var o opStats
	const n = 5 * maxOpSamples
	for i := 1; i <= n; i++ {
		o.observe(int64(i))
	}
	if o.count.Load() != n || o.sumNs.Load() != int64(n)*(n+1)/2 {
		t.Fatalf("count %d sum %d", o.count.Load(), o.sumNs.Load())
	}
	us := o.us()
	if len(us) == 0 || len(us) > maxOpSamples {
		t.Fatalf("%d samples kept, cap %d", len(us), maxOpSamples)
	}
	// The kept sample is evenly spread, so its median is the stream's.
	if m := median(us) * 1e3; math.Abs(m-n/2) > 0.05*n {
		t.Errorf("median of the kept sample %v, stream median %v", m, n/2)
	}
}
