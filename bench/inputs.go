package main

import (
	"fmt"
	"math/rand"
	"time"

	"gridsched"
	"gridsched/internal/partition"
	"gridsched/internal/workload"
)

// Every input below is a pure function of the run's -seed; the programs
// under test only ever see the generated workloads and request timings.

// oneFileUniverse is the file universe of oneFileJob: far larger than a
// site store (6,000 files), so by the time a file comes round again it has
// long been evicted.
const oneFileUniverse = 1 << 16

// oneFileJob is a Bag-of-Tasks job whose every task reads one file, no two
// nearby tasks the same one: nothing for a data-aware scheduler or a site
// store to exploit (every task stages exactly one file), so the wire and
// the lease path are all that is left to measure.
func oneFileJob(tasks int) *workload.Workload {
	w := &workload.Workload{Name: fmt.Sprintf("onefile-%d", tasks), NumFiles: min(tasks, oneFileUniverse), Tasks: make([]workload.Task, tasks)}
	files := make([]workload.FileID, tasks)
	for i := range w.Tasks {
		files[i] = workload.FileID(i % oneFileUniverse)
		w.Tasks[i] = workload.Task{ID: workload.TaskID(i), Files: files[i : i+1 : i+1]}
	}
	return w
}

// coaddSeed derives the trace seed of the k-th Coadd workload of a run.
// Seeds must be non-zero (zero means "default trace" to the generator).
func coaddSeed(seed int64, k int) int64 { return seed*1000 + int64(k) + 1 }

func coadd(seed int64, k, tasks int) (*workload.Workload, error) {
	return gridsched.NewCoaddWorkload(coaddSeed(seed, k), tasks)
}

// tenant is one fair-share tenant of durable_coadd and durable_recover.
type tenant struct {
	name   string
	weight int
}

var coaddTenants = []tenant{{"t-a", 3}, {"t-b", 2}, {"t-c", 1}, {"t-d", 1}}

// arrival is one job submission of the open-loop schedule.
type arrival struct {
	due   time.Duration // offset from the start of the schedule
	large bool
	// submissionID is the job's idempotency key, chosen so that the router's
	// hash places the job on partition part. Alternating partitions per size
	// class keeps the two partitions' offered load equal by construction,
	// so a run measures the system and not a lucky or unlucky hash split.
	submissionID string
	part         int
}

// poissonSchedule returns n = rate*horizon arrivals over [0, horizon): the
// gaps are seeded exponential draws, scaled so the n-th arrival lands
// inside the horizon (a Poisson process conditioned on its count, which
// keeps the offered load identical across seeds while the burstiness
// stays). Exactly one job in ten is large, at seeded positions.
func poissonSchedule(seed int64, rate float64, horizon time.Duration, partitions int) []arrival {
	n := int(rate * horizon.Seconds())
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(seed))
	gaps := make([]float64, n+1)
	var total float64
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	out := make([]arrival, n)
	var at float64
	for i := range out {
		at += gaps[i]
		out[i].due = time.Duration(at / total * float64(horizon))
	}
	for _, i := range rng.Perm(n)[:n/10] {
		out[i].large = true
	}
	next := [2]int{} // next partition per size class
	for i := range out {
		class := 0
		if out[i].large {
			class = 1
		}
		out[i].part = next[class] % partitions
		next[class]++
		for k := 0; ; k++ {
			id := fmt.Sprintf("bench-%d-%d-%d", seed, i, k)
			if partition.SubmitOwner(id, partitions) == out[i].part {
				out[i].submissionID = id
				break
			}
		}
	}
	return out
}
