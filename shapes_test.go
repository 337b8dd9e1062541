package gridsched

// Shape-regression tests: reduced-scale versions of the paper's qualitative
// claims, which `cmd/experiments` reproduces at paper scale. If one of these
// breaks, the reproduction story broke — not just a number.

import (
	"testing"

	"gridsched/internal/experiment"
)

func shapeOpts() experiment.Options {
	return experiment.Options{Tasks: 800, Seeds: []int64{1, 2}, Parallelism: 8}
}

func cellMean(t *testing.T, sw *experiment.Sweep, point int, alg string, metric func(*experiment.CellResults) []float64) float64 {
	t.Helper()
	for ai, name := range sw.Algorithms {
		if name == alg {
			vals := metric(sw.Cells[point][ai])
			var sum float64
			for _, v := range vals {
				sum += v
			}
			return sum / float64(len(vals))
		}
	}
	t.Fatalf("algorithm %q not in sweep %v", alg, sw.Algorithms)
	return 0
}

// TestShapeCapacityHurtsTaskCentric is Figure 4/5's core claim: premature
// scheduling decisions make storage affinity fetch far more redundantly
// than worker-centric rest at a tight capacity, and tight capacity hurts
// storage affinity more than it hurts rest.
func TestShapeCapacityHurtsTaskCentric(t *testing.T) {
	sw, err := experiment.CapacitySweep(shapeOpts(), []int{600, 6000})
	if err != nil {
		t.Fatal(err)
	}
	redundant := (*experiment.CellResults).RedundantTransfers
	saTight := cellMean(t, sw, 0, "task-centric storage affinity", redundant)
	restTight := cellMean(t, sw, 0, "rest", redundant)
	if saTight < 1.5*restTight {
		t.Fatalf("storage affinity redundancy %.0f not clearly above rest %.0f at tight capacity", saTight, restTight)
	}
	makespans := (*experiment.CellResults).Makespans
	saLoss := cellMean(t, sw, 0, "task-centric storage affinity", makespans) /
		cellMean(t, sw, 1, "task-centric storage affinity", makespans)
	restLoss := cellMean(t, sw, 0, "rest", makespans) / cellMean(t, sw, 1, "rest", makespans)
	if saLoss <= restLoss-0.02 {
		t.Fatalf("tight capacity hurt rest (x%.3f) more than storage affinity (x%.3f)", restLoss, saLoss)
	}
}

// TestShapeOverlapTransfersMoreThanRest is Figure 5's metric claim: not
// counting what still has to move (overlap) costs transfers vs rest.
func TestShapeOverlapTransfersMoreThanRest(t *testing.T) {
	sw, err := experiment.CapacitySweep(shapeOpts(), []int{2000})
	if err != nil {
		t.Fatal(err)
	}
	redundant := (*experiment.CellResults).RedundantTransfers
	overlap := cellMean(t, sw, 0, "overlap", redundant)
	rest := cellMean(t, sw, 0, "rest", redundant)
	if overlap <= rest {
		t.Fatalf("overlap redundancy %.0f not above rest %.0f", overlap, rest)
	}
}

// TestShapeCombinedLiteralIsBroken pins the combined-formula ablation: the
// literal typeset formula must be dramatically worse than the intended
// normalized sum (that is the evidence it is a typo).
func TestShapeCombinedLiteralIsBroken(t *testing.T) {
	w, err := NewCoaddWorkload(DefaultCoaddSeed, 800)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SimulationConfig{Workload: w, Sites: 6, CapacityFiles: 3000}
	intended, err := RunSimulation(cfg, "combined")
	if err != nil {
		t.Fatal(err)
	}
	literal, err := RunSimulation(cfg, "combined-literal")
	if err != nil {
		t.Fatal(err)
	}
	if literal.Metrics.TotalFileTransfers() < 2*intended.Metrics.TotalFileTransfers() {
		t.Fatalf("literal formula transfers %d not clearly above intended %d",
			literal.Metrics.TotalFileTransfers(), intended.Metrics.TotalFileTransfers())
	}
}

// TestShapeMoreSitesShrinkMakespan is Figure 7's claim for the
// worker-centric strategies.
func TestShapeMoreSitesShrinkMakespan(t *testing.T) {
	w, err := NewCoaddWorkload(DefaultCoaddSeed, 1000)
	if err != nil {
		t.Fatal(err)
	}
	small := SimulationConfig{Workload: w, Sites: 4, CapacityFiles: 3000}
	large := SimulationConfig{Workload: w, Sites: 12, CapacityFiles: 3000}
	a, err := RunSimulation(small, "rest.2")
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSimulation(large, "rest.2")
	if err != nil {
		t.Fatal(err)
	}
	if b.Metrics.MakespanSec >= a.Metrics.MakespanSec {
		t.Fatalf("12 sites (%.0f min) not faster than 4 sites (%.0f min)",
			b.MakespanMinutes(), a.MakespanMinutes())
	}
}

// TestShapeFileSizeScalesMakespan is Figure 8's claim: makespan grows with
// file size, roughly linearly.
func TestShapeFileSizeScalesMakespan(t *testing.T) {
	w, err := NewCoaddWorkload(DefaultCoaddSeed, 600)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(mb float64) float64 {
		cfg := SimulationConfig{Workload: w, Sites: 4, CapacityFiles: 3000, FileSizeBytes: mb * 1e6}
		res, err := RunSimulation(cfg, "combined.2")
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.MakespanSec
	}
	m5, m25, m50 := mk(5), mk(25), mk(50)
	if !(m5 < m25 && m25 < m50) {
		t.Fatalf("makespans not increasing with file size: %v %v %v", m5, m25, m50)
	}
}
