// Package workload models Bag-of-Tasks data-intensive workloads.
//
// A Workload is a set of independent tasks, each referencing a set of input
// files out of a shared file universe (paper §2.2, assumptions 1 and 4).
// The package provides the synthetic Coadd generator (the paper's
// evaluation workload), generic Zipf/geometric/uniform generators for other
// data-sharing regimes, JSON trace I/O, and the reference-distribution
// statistics behind the paper's Figures 1 and 3 and Table 2.
package workload

import (
	"fmt"
	"sort"
)

// FileID identifies a file in the workload's universe, in [0, NumFiles).
type FileID int32

// TaskID identifies a task, in [0, len(Tasks)).
type TaskID int32

// Task is one unit of work: it may run on any worker once all its input
// files are present at the worker's site.
type Task struct {
	ID    TaskID   `json:"id"`
	Files []FileID `json:"files"`
}

// Workload is an immutable Bag-of-Tasks description.
type Workload struct {
	Name     string `json:"name"`
	NumFiles int    `json:"numFiles"`
	Tasks    []Task `json:"tasks"`
}

// Validate checks internal consistency: ids in range, no empty or duplicate
// file lists within a task.
func (w *Workload) Validate() error {
	if w.NumFiles <= 0 {
		return fmt.Errorf("workload %q: NumFiles = %d", w.Name, w.NumFiles)
	}
	// lastTask[f] is one more than the last task seen referencing f, so one
	// array serves every task's duplicate check: a file is a duplicate when
	// its stamp is already the current task's.
	lastTask := make([]int32, w.NumFiles)
	for i, t := range w.Tasks {
		if t.ID != TaskID(i) {
			return fmt.Errorf("workload %q: task %d has id %d", w.Name, i, t.ID)
		}
		if len(t.Files) == 0 {
			return fmt.Errorf("workload %q: task %d has no files", w.Name, i)
		}
		stamp := int32(i) + 1
		for _, f := range t.Files {
			if f < 0 || int(f) >= w.NumFiles {
				return fmt.Errorf("workload %q: task %d references file %d outside [0,%d)", w.Name, i, f, w.NumFiles)
			}
			if lastTask[f] == stamp {
				return fmt.Errorf("workload %q: task %d references file %d twice", w.Name, i, f)
			}
			lastTask[f] = stamp
		}
	}
	return nil
}

// Stats summarizes a workload the way the paper's Table 2 does.
type Stats struct {
	Tasks           int     `json:"tasks"`
	TotalFiles      int     `json:"totalFiles"`      // distinct files referenced
	MinFilesPerTask int     `json:"minFilesPerTask"` // Table 2 "Min number of files needed"
	MaxFilesPerTask int     `json:"maxFilesPerTask"`
	AvgFilesPerTask float64 `json:"avgFilesPerTask"`
	TotalReferences int     `json:"totalReferences"` // sum of per-task file counts
	AvgRefsPerFile  float64 `json:"avgRefsPerFile"`
}

// ComputeStats scans the workload once and returns its summary.
func ComputeStats(w *Workload) Stats {
	s := Stats{Tasks: len(w.Tasks)}
	refs := make(map[FileID]int)
	for i, t := range w.Tasks {
		n := len(t.Files)
		s.TotalReferences += n
		if i == 0 || n < s.MinFilesPerTask {
			s.MinFilesPerTask = n
		}
		if n > s.MaxFilesPerTask {
			s.MaxFilesPerTask = n
		}
		for _, f := range t.Files {
			refs[f]++
		}
	}
	s.TotalFiles = len(refs)
	if s.Tasks > 0 {
		s.AvgFilesPerTask = float64(s.TotalReferences) / float64(s.Tasks)
	}
	if s.TotalFiles > 0 {
		s.AvgRefsPerFile = float64(s.TotalReferences) / float64(s.TotalFiles)
	}
	return s
}

// RefCDFPoint is one point of the paper's Figure 1/3 curve: Percent percent
// of the referenced files are accessed by at least MinRefs tasks.
type RefCDFPoint struct {
	MinRefs int     `json:"minRefs"`
	Percent float64 `json:"percent"`
}

// ReferenceCDF builds the cumulative reference distribution of Figures 1
// and 3: for each reference count r present, the percentage of files
// referenced by >= r tasks. Points are returned in increasing MinRefs
// order (the paper plots the x-axis decreasing; same data).
func ReferenceCDF(w *Workload) []RefCDFPoint {
	refs := make(map[FileID]int)
	for _, t := range w.Tasks {
		for _, f := range t.Files {
			refs[f]++
		}
	}
	if len(refs) == 0 {
		return nil
	}
	counts := make([]int, 0, len(refs))
	for _, r := range refs {
		counts = append(counts, r)
	}
	sort.Ints(counts)
	total := float64(len(counts))
	var out []RefCDFPoint
	// counts is ascending; files with refs >= counts[i] are those at i..end.
	for i := 0; i < len(counts); i++ {
		if i > 0 && counts[i] == counts[i-1] {
			continue
		}
		out = append(out, RefCDFPoint{
			MinRefs: counts[i],
			Percent: 100 * float64(len(counts)-i) / total,
		})
	}
	return out
}

// PercentWithAtLeast returns the percentage of distinct files referenced by
// at least minRefs tasks (the "roughly 85% of files are accessed by 6 or
// more tasks" statistic).
func PercentWithAtLeast(w *Workload, minRefs int) float64 {
	cdf := ReferenceCDF(w)
	// cdf is ascending in MinRefs with decreasing Percent; find the first
	// point at or above minRefs.
	for _, pt := range cdf {
		if pt.MinRefs >= minRefs {
			return pt.Percent
		}
	}
	return 0
}
