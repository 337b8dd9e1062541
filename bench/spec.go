package main

// Workload names are fixed: later issues cite them, and BENCHMARK.json
// lists them with the reason each exists.
const (
	wlStreamMem      = "stream_mem"
	wlDurableCoadd   = "durable_coadd"
	wlDurableRecover = "durable_recover"
	wlSubmitPoll     = "submit_poll"
	wlPaperSweep     = "paper_sweep"
)

var workloadNames = []string{wlStreamMem, wlDurableCoadd, wlDurableRecover, wlSubmitPoll, wlPaperSweep}

// metricSpec describes one reported metric. bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics have none.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// End-to-end metrics. The driver's contract is that every workload reports
// every one of them, so each is defined in terms every workload has: a
// count of tasks finished, one unit operation, the memory of the programs
// under test, and the files the schedule made the sites fetch. What the
// unit operation is per workload is stated in README.md.
const (
	mSetupS           = "setup_s"
	mTasksPerS        = "tasks_per_s"
	mOpP50Ms          = "op_p50_ms"
	mPeakRSSMB        = "peak_rss_mb"
	mTransfersPerTask = "transfers_per_task"
)

// Every timing sits at the contract's maximum bound of 0.25: on the shared
// 2-core host the benchmark was sized on, ten runs of the same commit spread
// by 10-30% of their median on every wall-clock figure, in bursts the
// benchmark cannot tell from the program (README.md, "A/A agreement"). The
// count is deterministic up to worker interleaving and gets a tight one.
var endToEnd = []metricSpec{
	{mSetupS, "s", "lower", 0.25},
	{mTasksPerS, "1/s", "higher", 0.25},
	{mOpP50Ms, "ms", "lower", 0.25},
	{mPeakRSSMB, "MB", "lower", 0.25},
	{mTransfersPerTask, "count", "lower", 0.05},
}

// Per-layer metrics, reported by the traced run (-trace 1) on every
// workload; a layer a workload bypasses reports 0. Names follow the
// package that does the work. README.md has the table of which end-to-end
// metric each should move, on which workload.
var perLayer = []metricSpec{
	// internal/service/client
	{"client.self_us_per_task", "us", "lower", 0},
	{"client.cycle_p99_ms", "ms", "lower", 0},
	{"client.cycle_max_ms", "ms", "lower", 0},
	{"client.gen_lag_p99_ms", "ms", "lower", 0},
	{"client.retries", "count", "lower", 0},
	// internal/service/api codecs, timed standalone on captured messages
	{"codec.bin_lease_us_per_task", "us", "lower", 0},
	{"codec.bin_report_us_per_task", "us", "lower", 0},
	{"codec.json_pull_us", "us", "lower", 0},
	{"codec.json_report_us", "us", "lower", 0},
	{"codec.json_submit_ms_per_mb", "ms", "lower", 0},
	{"codec.bin_submit_ms_per_mb", "ms", "lower", 0},
	{"codec.wire_bytes_per_task", "count", "lower", 0},
	// internal/partition
	{"router.self_us_per_req", "us", "lower", 0},
	{"router.submit_self_ms_per_mb", "ms", "lower", 0},
	// internal/middleware
	{"ingress.self_us_per_req", "us", "lower", 0},
	{"ingress.shed", "count", "lower", 0},
	{"ingress.throttled", "count", "lower", 0},
	// internal/service
	{"service.pull_us_p50", "us", "lower", 0},
	{"service.pull_us_p99", "us", "lower", 0},
	{"service.report_us_p50", "us", "lower", 0},
	{"service.submit_ms_p50", "ms", "lower", 0},
	{"service.self_us_per_task", "us", "lower", 0},
	{"service.fair_share_err", "count", "lower", 0},
	// internal/core
	{"core.nextfor_us_p50", "us", "lower", 0},
	{"core.nextfor_us_p99", "us", "lower", 0},
	{"core.notebatch_us_p50", "us", "lower", 0},
	{"core.complete_us_p50", "us", "lower", 0},
	{"core.build_ms", "ms", "lower", 0},
	{"core.us_per_task", "us", "lower", 0},
	{"core.replay_us_per_task", "us", "lower", 0},
	{"core.share_of_sim", "%", "lower", 0},
	// internal/storage
	{"storage.commit_us_p50", "us", "lower", 0},
	{"storage.hit_ratio", "%", "higher", 0},
	{"storage.evictions_per_task", "count", "lower", 0},
	// internal/journal
	{"journal.records_per_task", "count", "lower", 0},
	{"journal.bytes_per_task", "count", "lower", 0},
	{"journal.fsyncs_per_s", "1/s", "lower", 0},
	{"journal.append_us_per_record", "us", "lower", 0},
	{"journal.read_us_per_record", "us", "lower", 0},
	{"journal.durable_delta_us_per_task", "us", "lower", 0},
	// internal/service persistence: snapshots and recovery
	{"snapshot.count", "count", "lower", 0},
	{"snapshot.bytes_last", "count", "lower", 0},
	{"snapshot.pause_ms_max", "ms", "lower", 0},
	{"snapshot.stall_share", "%", "lower", 0},
	{"recovery.replay_records", "count", "lower", 0},
	{"recovery.replay_s", "s", "lower", 0},
	{"recovery.records_per_s", "1/s", "higher", 0},
	{"recovery.process_start_ms", "ms", "lower", 0},
	// internal/grid, internal/sim, internal/workload
	{"grid.run_ms_p50", "ms", "lower", 0},
	{"grid.self_share", "%", "lower", 0},
	{"sim.events_per_s", "1/s", "higher", 0},
	{"workload.gen_ms", "ms", "lower", 0},
	// User-visible figures of single workloads that the every-workload
	// contract keeps out of the end-to-end list; reported untraced.
	{"submit_small_p50_ms", "ms", "lower", 0},
	{"submit_large_p50_ms", "ms", "lower", 0},
	{"turnaround_p50_ms", "ms", "lower", 0},
	{"report_p99_ms", "ms", "lower", 0},
	{"makespan_min", "min", "lower", 0},
	{"redundant_transfers", "count", "lower", 0},
	// Accounting of the traced run itself.
	{"trace.unattributed_us_per_task", "us", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}
