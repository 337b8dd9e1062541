package experiment

import (
	"fmt"

	"gridsched/internal/core"
	"gridsched/internal/grid"
	"gridsched/internal/storage"
	"gridsched/internal/workload"
)

// Table2 characterizes the evaluation workload (paper Table 2).
func Table2(opts Options) (*Report, error) {
	opts.Normalize()
	w, err := coaddWorkload(opts)
	if err != nil {
		return nil, err
	}
	s := workload.ComputeStats(w)
	rep := &Report{
		ID:      "table2",
		Title:   fmt.Sprintf("Characteristics of Coadd with %d tasks", s.Tasks),
		Columns: []string{"characteristic", "value", "paper"},
		Rows: [][]string{
			{"Total number of files", fmt.Sprintf("%d", s.TotalFiles), "53390"},
			{"Max number of files needed by a task", fmt.Sprintf("%d", s.MaxFilesPerTask), "101"},
			{"Min number of files needed by a task", fmt.Sprintf("%d", s.MinFilesPerTask), "36"},
			{"Average number of files needed by a task", fmt.Sprintf("%.4f", s.AvgFilesPerTask), "78.4327"},
		},
		Notes: []string{"paper column applies at Tasks=6000 with the canonical trace seed"},
	}
	return rep, nil
}

// refCDFReport renders a Figure 1/3 style reference CDF.
func refCDFReport(id, title string, w *workload.Workload, paperPct6 string) *Report {
	cdf := workload.ReferenceCDF(w)
	rep := &Report{
		ID:      id,
		Title:   title,
		XLabel:  "# of references",
		YLabel:  "% of files (cumulative)",
		Columns: []string{"min refs", "% of files with >= that many refs"},
		Notes: []string{
			fmt.Sprintf("%% of files accessed by >= 6 tasks: %.1f (paper: %s)", workload.PercentWithAtLeast(w, 6), paperPct6),
		},
	}
	for _, pt := range cdf {
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", pt.MinRefs), fmt.Sprintf("%.2f", pt.Percent),
		})
	}
	return rep
}

// Figure1 is the file-access CDF of the full 44,000-task Coadd.
func Figure1(opts Options) (*Report, error) {
	opts.Normalize()
	cfg := workload.CoaddFullConfig(1)
	if opts.Tasks != 6000 {
		// Scaled-down invocations (benchmarks) shrink the full trace
		// proportionally: the paper ratio is 44000 full / 6000 eval.
		cfg.Tasks = opts.Tasks * 44000 / 6000
	}
	w, err := workload.GenerateCoadd(cfg)
	if err != nil {
		return nil, err
	}
	return refCDFReport("figure1", fmt.Sprintf("Coadd file access distribution (%d tasks)", cfg.Tasks), w, "~90"), nil
}

// Figure3 is the file-access CDF of the evaluation slice.
func Figure3(opts Options) (*Report, error) {
	opts.Normalize()
	w, err := coaddWorkload(opts)
	if err != nil {
		return nil, err
	}
	return refCDFReport("figure3", fmt.Sprintf("File access distribution of Coadd with %d tasks", len(w.Tasks)), w, "~85"), nil
}

// PaperCapacities are Figure 4/5's x values.
var PaperCapacities = []int{3000, 6000, 15000, 30000}

// CapacitySweep runs Figure 4/5's sweep over data-server capacities.
func CapacitySweep(opts Options, capacities []int) (*Sweep, error) {
	opts.Normalize()
	w, err := coaddWorkload(opts)
	if err != nil {
		return nil, err
	}
	var labels []string
	var configs []grid.Config
	for _, c := range capacities {
		cfg := baseConfig()
		cfg.CapacityFiles = c
		labels = append(labels, fmt.Sprintf("%d", c))
		configs = append(configs, cfg)
	}
	return runSweep(opts, w, labels, configs, PaperAlgorithms())
}

// Figure4Style renders any capacity sweep the way Figure 4 is plotted.
func Figure4Style(sw *Sweep) *Report {
	return sweepReport("figure4", "Makespan vs. data server capacity", "capacity (# of files)", "makespan (minutes)",
		sw, (*CellResults).Makespans)
}

// Figure5Style renders any capacity sweep the way Figure 5 is plotted.
func Figure5Style(sw *Sweep) *Report {
	return sweepReport("figure5", "File transfers vs. data server capacity", "capacity (# of files)", "# of file transfers (redundant)",
		sw, (*CellResults).RedundantTransfers)
}

// Figure4And5 runs the capacity sweep once and renders both figures.
func Figure4And5(opts Options) (fig4, fig5 *Report, err error) {
	sw, err := CapacitySweep(opts, PaperCapacities)
	if err != nil {
		return nil, nil, err
	}
	fig4 = Figure4Style(sw)
	fig5 = Figure5Style(sw)
	fig5.Notes = append(fig5.Notes,
		"redundant transfers = fetches beyond the first fetch of each distinct file; the paper's y-axis sits far below the distinct-file count, so it cannot be counting total fetches",
		"total fetches = redundant + distinct files referenced")
	return fig4, fig5, nil
}

// PaperWorkerCounts are Figure 6's x values.
var PaperWorkerCounts = []int{2, 4, 6, 8, 10}

// WorkersSweep runs Figure 6 / Table 3's sweep over workers per site.
func WorkersSweep(opts Options, workers []int) (*Sweep, error) {
	opts.Normalize()
	w, err := coaddWorkload(opts)
	if err != nil {
		return nil, err
	}
	var labels []string
	var configs []grid.Config
	for _, n := range workers {
		cfg := baseConfig()
		cfg.WorkersPerSite = n
		labels = append(labels, fmt.Sprintf("%d", n))
		configs = append(configs, cfg)
	}
	return runSweep(opts, w, labels, configs, PaperAlgorithms())
}

// Figure6AndTable3 runs the workers sweep once and renders both artifacts.
func Figure6AndTable3(opts Options) (fig6, table3 *Report, err error) {
	sw, err := WorkersSweep(opts, PaperWorkerCounts)
	if err != nil {
		return nil, nil, err
	}
	fig6 = sweepReport("figure6", "Makespan vs. workers per site", "# of workers", "makespan (minutes)",
		sw, (*CellResults).Makespans)

	// Table 3: the rest metric's per-site data-server breakdown.
	restIdx := -1
	for i, name := range sw.Algorithms {
		if name == "rest" {
			restIdx = i
		}
	}
	if restIdx < 0 {
		return nil, nil, fmt.Errorf("experiment: rest algorithm missing from workers sweep")
	}
	table3 = &Report{
		ID:      "table3",
		Title:   "Result of the rest metric per site (averages over sites and seeds)",
		Columns: []string{"# workers", "waiting time (hrs)", "transfer time (hrs)", "# of file transfers"},
		Notes: []string{
			"waiting time: mean time a batch request spends queued at a data server",
			"transfer time: total time a data server spends fetching from the file server",
			"file transfers: files fetched per site",
		},
	}
	for pi, label := range sw.PointLabels {
		if label == "10" {
			continue // paper's Table 3 stops at 8 workers
		}
		cell := sw.Cells[pi][restIdx]
		var wait, xfer, transfers, nsites float64
		for _, res := range cell.Runs {
			for i := range res.Metrics.Sites {
				sm := &res.Metrics.Sites[i]
				wait += sm.MeanWaitSec() / 3600
				xfer += sm.TransferTimeSum / 3600
				transfers += float64(sm.FileTransfers)
				nsites++
			}
		}
		if nsites > 0 {
			wait /= nsites
			xfer /= nsites
			transfers /= nsites
		}
		table3.Rows = append(table3.Rows, []string{
			label,
			fmt.Sprintf("%.2f", wait),
			fmt.Sprintf("%.2f", xfer),
			fmt.Sprintf("%.2f", transfers),
		})
	}
	return fig6, table3, nil
}

// PaperSiteCounts are Figure 7's x values.
var PaperSiteCounts = []int{10, 14, 18, 22, 26}

// Figure7 sweeps the number of participating sites.
func Figure7(opts Options) (*Report, error) {
	opts.Normalize()
	w, err := coaddWorkload(opts)
	if err != nil {
		return nil, err
	}
	var labels []string
	var configs []grid.Config
	for _, n := range PaperSiteCounts {
		cfg := baseConfig()
		cfg.Sites = n
		labels = append(labels, fmt.Sprintf("%d", n))
		configs = append(configs, cfg)
	}
	sw, err := runSweep(opts, w, labels, configs, PaperAlgorithms())
	if err != nil {
		return nil, err
	}
	return sweepReport("figure7", "Makespan vs. number of sites", "# of sites", "makespan (minutes)",
		sw, (*CellResults).Makespans), nil
}

// PaperFileSizesMB are Figure 8's x values.
var PaperFileSizesMB = []int{5, 25, 50}

// Figure8 sweeps the file size.
func Figure8(opts Options) (*Report, error) {
	opts.Normalize()
	w, err := coaddWorkload(opts)
	if err != nil {
		return nil, err
	}
	var labels []string
	var configs []grid.Config
	for _, mb := range PaperFileSizesMB {
		cfg := baseConfig()
		cfg.FileSizeBytes = float64(mb) * 1e6
		labels = append(labels, fmt.Sprintf("%d", mb))
		configs = append(configs, cfg)
	}
	sw, err := runSweep(opts, w, labels, configs, PaperAlgorithms())
	if err != nil {
		return nil, err
	}
	return sweepReport("figure8", "Makespan vs. file size", "communication cost (file size MB)", "makespan (minutes)",
		sw, (*CellResults).Makespans), nil
}

// ablationReport renders a one-point multi-algorithm comparison with one
// row per algorithm.
func ablationReport(id, title string, sw *Sweep) *Report {
	rep := &Report{
		ID:      id,
		Title:   title,
		Columns: []string{"algorithm", "makespan (minutes)", "file transfers", "redundant transfers"},
	}
	for ai, name := range sw.Algorithms {
		cell := sw.Cells[0][ai]
		rep.Rows = append(rep.Rows, []string{
			name,
			fmt.Sprintf("%.0f", meanOf(cell.Makespans())),
			fmt.Sprintf("%.0f", meanOf(cell.Transfers())),
			fmt.Sprintf("%.0f", meanOf(cell.RedundantTransfers())),
		})
	}
	return rep
}

// AblationCombined compares the paper's Combined formula as intended vs. as
// typeset: core.MetricCombined against core.MetricCombinedLiteral, whose
// totalRest/rest_t inverts the rest term the text describes.
func AblationCombined(opts Options) (*Report, error) {
	opts.Normalize()
	w, err := coaddWorkload(opts)
	if err != nil {
		return nil, err
	}
	algs := []Algorithm{
		workerCentricAlg(core.MetricCombined, 1),
		workerCentricAlg(core.MetricCombinedLiteral, 1),
		workerCentricAlg(core.MetricCombined, 2),
		workerCentricAlg(core.MetricCombinedLiteral, 2),
	}
	sw, err := runSweep(opts, w, []string{"default"}, []grid.Config{baseConfig()}, algs)
	if err != nil {
		return nil, err
	}
	return ablationReport("ablation-combined", "Combined metric: intended vs. literal formula", sw), nil
}

// ChooseTaskNs are the n values the ChooseTask ablation explores (§4.3
// says the authors "tried different values of n, but only 1 and 2 give
// good results").
var ChooseTaskNs = []int{1, 2, 3, 5, 10}

// AblationChooseTask sweeps n for the rest and combined metrics.
func AblationChooseTask(opts Options) (*Report, error) {
	opts.Normalize()
	w, err := coaddWorkload(opts)
	if err != nil {
		return nil, err
	}
	var algs []Algorithm
	for _, n := range ChooseTaskNs {
		algs = append(algs, workerCentricAlg(core.MetricRest, n))
		algs = append(algs, workerCentricAlg(core.MetricCombined, n))
	}
	sw, err := runSweep(opts, w, []string{"default"}, []grid.Config{baseConfig()}, algs)
	if err != nil {
		return nil, err
	}
	return ablationReport("ablation-choosetask", "ChooseTask(n): effect of the randomization window", sw), nil
}

// ChurnAvailabilities are the worker-availability levels the churn
// ablation sweeps (fraction of time a worker is up).
var ChurnAvailabilities = []float64{1.0, 0.9, 0.7, 0.5}

// AblationChurn sweeps worker availability (the overloaded resource
// suppliers that motivate worker-centric scheduling in §1): each worker
// alternates exponential up/down periods with a 2-hour mean downtime, and
// an execution in flight when the worker goes down is lost and requeued.
func AblationChurn(opts Options) (*Report, error) {
	opts.Normalize()
	w, err := coaddWorkload(opts)
	if err != nil {
		return nil, err
	}
	const meanDown = 7200.0 // seconds
	var labels []string
	var configs []grid.Config
	for _, avail := range ChurnAvailabilities {
		cfg := baseConfig()
		if avail < 1 {
			cfg.ChurnMeanDownSec = meanDown
			cfg.ChurnMeanUpSec = meanDown * avail / (1 - avail)
		}
		labels = append(labels, fmt.Sprintf("%.0f%%", avail*100))
		configs = append(configs, cfg)
	}
	algs := []Algorithm{
		storageAffinityAlg(),
		workqueueAlg(),
		workerCentricAlg(core.MetricRest, 1),
		workerCentricAlg(core.MetricRest, 2),
		workerCentricAlg(core.MetricCombined, 2),
	}
	sw, err := runSweep(opts, w, labels, configs, algs)
	if err != nil {
		return nil, err
	}
	rep := sweepReport("ablation-churn", "Makespan vs. worker availability", "availability", "makespan (minutes)",
		sw, (*CellResults).Makespans)
	rep.Notes = append(rep.Notes, "mean downtime 2h; mean uptime = availability/(1-availability) * 2h; lost executions are requeued")
	return rep, nil
}

// AblationReplication tests the paper's §3.1/§3.2 claim that proactive
// data replication is *necessary* for task-centric scheduling but merely
// *orthogonal* for worker-centric scheduling: it runs the tight-capacity
// scenario with the Ranganathan-Foster replication mechanism off and on.
func AblationReplication(opts Options) (*Report, error) {
	opts.Normalize()
	w, err := coaddWorkload(opts)
	if err != nil {
		return nil, err
	}
	algs := []Algorithm{
		storageAffinityAlg(),
		workerCentricAlg(core.MetricRest, 1),
		workerCentricAlg(core.MetricCombined, 2),
	}
	off := baseConfig()
	off.CapacityFiles = 3000
	on := off
	on.Replication = grid.ReplicationConfig{
		Threshold:      4,
		IntervalSec:    3600,
		MaxPerInterval: 64,
		Strategy:       grid.ReplicateRandom,
	}
	sw, err := runSweep(opts, w, []string{"off", "on"}, []grid.Config{off, on}, algs)
	if err != nil {
		return nil, err
	}
	rep := sweepReport("ablation-replication", "Proactive data replication at capacity 3000", "replication", "makespan (minutes)",
		sw, (*CellResults).Makespans)
	rep.Notes = append(rep.Notes, "replication: popularity threshold 4 fetches, random target site, hourly scans")
	return rep, nil
}

// AblationEviction compares LRU vs FIFO replacement under the tightest
// paper capacity, where premature decisions hurt the most.
func AblationEviction(opts Options) (*Report, error) {
	opts.Normalize()
	w, err := coaddWorkload(opts)
	if err != nil {
		return nil, err
	}
	algs := []Algorithm{
		storageAffinityAlg(),
		workerCentricAlg(core.MetricRest, 1),
		workerCentricAlg(core.MetricCombined, 2),
	}
	lru := baseConfig()
	lru.CapacityFiles = 3000
	lru.Policy = storage.LRU
	fifo := lru
	fifo.Policy = storage.FIFO
	sw, err := runSweep(opts, w, []string{"lru", "fifo"}, []grid.Config{lru, fifo}, algs)
	if err != nil {
		return nil, err
	}
	rep := sweepReport("ablation-eviction", "Eviction policy at capacity 3000", "policy", "makespan (minutes)",
		sw, (*CellResults).Makespans)
	return rep, nil
}
