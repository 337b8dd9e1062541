package main

import (
	"encoding/json"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
)

// The benchmark was sized on a shared 2-vCPU host that runs at two speeds:
// for minutes at a time every workload, in-process or not, is 15-25% slower,
// with no steal time reported, and ten consecutive runs of one commit can
// straddle both (measured spread of wall-clock metrics over ten runs: 5-15%
// of the median while the host keeps one speed, 15-33% when it does not —
// more than any bound the driver's contract allows). A fixed piece of work
// that uses none of the code under test slows with the host too, so each
// end-to-end run times one — hostSpeed — immediately before and after the
// workload and reports its times in reference seconds: wall seconds divided
// by the host factor, the mean of the two calibrations over calibrationRef.
// That trades a few percent of extra noise on a steady host for immunity to
// the speed changes (README.md, "A/A agreement"). Per-layer runs (-trace 1)
// report raw times.

// calibrationRef is roughly what hostSpeed returns on that host at its
// faster speed; with it the reported numbers read as that box's seconds.
const calibrationRef = 0.060

// calibrationPass is the fixed work: sorting, map building and JSON coding
// over seeded data — the mix of arithmetic, branching, allocation and
// memory traffic the daemons spend their time on. About 50 ms.
func calibrationPass() {
	type rec struct {
		ID    int     `json:"id"`
		Name  string  `json:"name"`
		Files []int32 `json:"files"`
		W     float64 `json:"w"`
	}
	rng := rand.New(rand.NewSource(1))
	ints := make([]int, 240_000)
	for i := range ints {
		ints[i] = rng.Int()
	}
	sort.Ints(ints)
	m := make(map[int]int32, 1024)
	for i, v := range ints[:120_000] {
		m[v%65_537] += int32(i)
	}
	recs := make([]rec, 3_000)
	for i := range recs {
		files := make([]int32, 40)
		for k := range files {
			files[k] = m[ints[(i*40+k)%len(ints)]%65_537]
		}
		recs[i] = rec{ID: i, Name: "task", Files: files, W: float64(i) / 7}
	}
	data, _ := json.Marshal(recs)
	var back []rec
	_ = json.Unmarshal(data, &back)
}

// threadCPU is the CPU time the calling OS thread has used, in seconds.
func threadCPU() float64 {
	const rusageThread = 1 // RUSAGE_THREAD
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// hostSpeed returns the median CPU seconds of calibrationPasses passes, run
// on as many threads at once as the workloads keep busy. Thread CPU time,
// not wall time: what is measured is how fast the host executes, not who
// else wanted the core. Long and wide enough (1.3 s on both cores of the
// 2-core box) to average over the host's second-long slow bursts the way a
// 10-second workload does.
func hostSpeed() float64 {
	threads := min(runtime.NumCPU(), 4)
	per := calibrationPasses / threads
	out := make(chan []float64, threads)
	for t := 0; t < threads; t++ {
		go func() {
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			xs := make([]float64, per)
			for i := range xs {
				before := threadCPU()
				calibrationPass()
				xs[i] = threadCPU() - before
			}
			out <- xs
		}()
	}
	var all []float64
	for t := 0; t < threads; t++ {
		all = append(all, <-out...)
	}
	return median(all)
}

// calibrationPasses is how many passes one hostSpeed call makes in total.
const calibrationPasses = 48

// toReference converts one end-to-end value to reference seconds: times are
// divided by the host factor, rates multiplied, everything else left alone.
func toReference(v float64, unit string, factor float64) float64 {
	switch unit {
	case "s", "ms":
		return v / factor
	case "1/s":
		return v * factor
	}
	return v
}
