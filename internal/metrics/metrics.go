// Package metrics collects per-run simulation measurements: the quantities
// behind the paper's Figures 4-8 (makespan, file transfer counts) and
// Table 3 (per-site waiting time, transfer time, transfer counts).
package metrics

// SiteMetrics accumulates data-server activity at one site.
type SiteMetrics struct {
	// Requests is the number of batch file requests served.
	Requests int64 `json:"requests"`
	// FileTransfers counts files fetched from the external file server
	// (cache misses). This is the paper's "# of file transfers".
	FileTransfers int64 `json:"fileTransfers"`
	// BytesFetched is FileTransfers scaled by file size.
	BytesFetched float64 `json:"bytesFetched"`
	// WaitTimeSum accumulates, over requests, the time spent queued at
	// the data server before service began (seconds).
	WaitTimeSum float64 `json:"waitTimeSumSec"`
	// TransferTimeSum accumulates time spent fetching missing files from
	// the external file server (seconds).
	TransferTimeSum float64 `json:"transferTimeSumSec"`
	// Evictions counts files displaced from the site's storage.
	Evictions int64 `json:"evictions"`
	// ProactiveReplicas counts files pushed to the site by the data
	// replication mechanism (not fetched on demand).
	ProactiveReplicas int64 `json:"proactiveReplicas"`
	// TasksExecuted counts executions started at the site (including
	// replicas later cancelled); TasksCompleted counts executions that
	// ran to completion here.
	TasksExecuted  int64 `json:"tasksExecuted"`
	TasksCompleted int64 `json:"tasksCompleted"`
}

// MeanWaitSec returns the mean queueing delay per batch request.
func (m *SiteMetrics) MeanWaitSec() float64 {
	if m.Requests == 0 {
		return 0
	}
	return m.WaitTimeSum / float64(m.Requests)
}

// Collector gathers a run's metrics.
type Collector struct {
	Sites []SiteMetrics `json:"sites"`
	// MakespanSec is the virtual time at which the last task completed.
	MakespanSec float64 `json:"makespanSec"`
	// TasksCompleted counts distinct completed tasks; CancelledExecutions
	// counts replica executions interrupted or abandoned.
	TasksCompleted      int   `json:"tasksCompleted"`
	CancelledExecutions int64 `json:"cancelledExecutions"`
	// FailedExecutions counts executions lost to worker churn.
	FailedExecutions int64 `json:"failedExecutions"`
	// DistinctFilesFetched counts files fetched from the external file
	// server at least once anywhere in the grid.
	DistinctFilesFetched int64 `json:"distinctFilesFetched"`
}

// RedundantTransfers returns fetches beyond the first fetch of each file:
// re-fetches after eviction plus duplicate fetches at multiple sites. This
// is the reuse-failure signal schedulers try to minimize, and the series
// comparable to the paper's Figure 5 (whose values sit far below the
// distinct-file count, so it cannot be counting total fetches).
func (c *Collector) RedundantTransfers() int64 {
	return c.TotalFileTransfers() - c.DistinctFilesFetched
}

// NewCollector returns a collector for the given number of sites.
func NewCollector(sites int) *Collector {
	return &Collector{Sites: make([]SiteMetrics, sites)}
}

// TotalFileTransfers sums transfers across sites (Figure 5's y-axis).
func (c *Collector) TotalFileTransfers() int64 {
	var n int64
	for i := range c.Sites {
		n += c.Sites[i].FileTransfers
	}
	return n
}

// TotalBytesFetched sums fetched bytes across sites.
func (c *Collector) TotalBytesFetched() float64 {
	var n float64
	for i := range c.Sites {
		n += c.Sites[i].BytesFetched
	}
	return n
}
