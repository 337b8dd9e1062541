package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/<id>.csv from this tree's output")

// fastOpts shrinks an experiment to integration-test scale.
func fastOpts() Options {
	return Options{Tasks: 250, Seeds: []int64{1}, Parallelism: 4}
}

func TestTable2Report(t *testing.T) {
	rep, err := Table2(Options{Tasks: 6000, Seeds: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "table2" || len(rep.Rows) != 4 {
		t.Fatalf("report = %+v", rep)
	}
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Total number of files") {
		t.Fatalf("render missing row: %s", buf.String())
	}
}

func TestFigure3CDF(t *testing.T) {
	rep, err := Figure3(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("empty CDF")
	}
	if rep.Rows[0][1] != "100.00" {
		t.Fatalf("CDF not anchored at 100%%: %v", rep.Rows[0])
	}
}

func TestFigure1ScalesDown(t *testing.T) {
	rep, err := Figure1(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("empty CDF")
	}
}

func TestCapacitySweepShape(t *testing.T) {
	opts := fastOpts()
	sw, err := CapacitySweep(opts, []int{500, 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.PointLabels) != 2 || len(sw.Algorithms) != 6 {
		t.Fatalf("sweep shape: %v x %v", sw.PointLabels, sw.Algorithms)
	}
	for pi := range sw.Cells {
		for ai := range sw.Cells[pi] {
			cell := sw.Cells[pi][ai]
			if len(cell.Runs) != 1 || cell.Runs[0] == nil {
				t.Fatalf("cell (%d,%d) incomplete", pi, ai)
			}
			if cell.Runs[0].MakespanMinutes() <= 0 {
				t.Fatalf("cell (%d,%d) zero makespan", pi, ai)
			}
		}
	}
}

func TestFigure4And5ShareSweep(t *testing.T) {
	opts := fastOpts()
	f4, f5, err := Figure4And5(opts)
	if err != nil {
		t.Fatal(err)
	}
	if f4.ID != "figure4" || f5.ID != "figure5" {
		t.Fatalf("ids: %s, %s", f4.ID, f5.ID)
	}
	if len(f4.Rows) != len(PaperCapacities) || len(f5.Rows) != len(PaperCapacities) {
		t.Fatalf("row counts: %d, %d", len(f4.Rows), len(f5.Rows))
	}
	// 6 algorithms + x column.
	if len(f4.Columns) != 7 {
		t.Fatalf("columns: %v", f4.Columns)
	}
}

func TestFigure6AndTable3(t *testing.T) {
	opts := fastOpts()
	f6, t3, err := Figure6AndTable3(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(f6.Rows) != len(PaperWorkerCounts) {
		t.Fatalf("figure6 rows: %d", len(f6.Rows))
	}
	// Table 3 stops at 8 workers (4 rows).
	if len(t3.Rows) != 4 {
		t.Fatalf("table3 rows: %v", t3.Rows)
	}
	for _, row := range t3.Rows {
		if len(row) != 4 {
			t.Fatalf("table3 row: %v", row)
		}
	}
}

func TestAblationChooseTask(t *testing.T) {
	opts := fastOpts()
	rep, err := AblationChooseTask(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2*len(ChooseTaskNs) {
		t.Fatalf("rows: %d", len(rep.Rows))
	}
}

func TestAblationEviction(t *testing.T) {
	opts := fastOpts()
	rep, err := AblationEviction(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows: %v", rep.Rows)
	}
}

func TestRegistryCoversAllArtifacts(t *testing.T) {
	want := []string{
		"table2", "figure1", "figure3", "figure4", "figure5", "figure6",
		"table3", "figure7", "figure8",
		"ablation-combined", "ablation-choosetask", "ablation-eviction",
		"ablation-churn", "ablation-replication",
	}
	reg := Registry()
	for _, id := range want {
		if _, ok := reg[id]; !ok {
			t.Errorf("registry missing %q", id)
		}
	}
	if len(reg) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(reg), len(want))
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("Lookup accepted unknown id")
	}
	def, err := Lookup("table2")
	if err != nil || def.ID != "table2" {
		t.Errorf("Lookup(table2) = %+v, %v", def, err)
	}
}

func TestReportCSV(t *testing.T) {
	rep := &Report{
		ID:      "x",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}, {"3", "4"}},
	}
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,2\n3,4\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}

func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	run := func(par int) string {
		opts := fastOpts()
		opts.Parallelism = par
		rep, _, err := Figure4And5(opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := run(1), run(8); a != b {
		t.Fatalf("results depend on parallelism:\n%s\nvs\n%s", a, b)
	}
}

// TestArtifactGoldens pins the paper engine's decisions: every registered
// artifact, rendered at 1,200 tasks over seeds 1 and 2, must write the CSV
// bytes committed as testdata/<id>.csv. Regenerate them with -update only
// when a decision is meant to change, and say why.
func TestArtifactGoldens(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the goldens are amd64 output; the Go spec lets %s fuse multiply-adds, which can change the bytes", runtime.GOARCH)
	}
	opts := Options{Tasks: 1200, Seeds: []int64{1, 2}}
	done := map[string]bool{}
	for _, id := range IDs() {
		if done[id] {
			continue // a shared sweep already emitted it
		}
		def, _ := Lookup(id)
		reports, err := def.Run(opts)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, rep := range reports {
			if done[rep.ID] {
				continue
			}
			done[rep.ID] = true
			var got bytes.Buffer
			if err := rep.WriteCSV(&got); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", rep.ID+".csv")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s: a decision changed; got\n%s\nwant (%s)\n%s", rep.ID, got.Bytes(), path, want)
			}
		}
	}
}
