package metrics

import "testing"

func TestCollectorTotals(t *testing.T) {
	c := NewCollector(3)
	c.Sites[0] = SiteMetrics{Requests: 10, FileTransfers: 100, BytesFetched: 2500}
	c.Sites[1] = SiteMetrics{Requests: 5, FileTransfers: 50, BytesFetched: 1250}
	c.Sites[2] = SiteMetrics{Requests: 1, FileTransfers: 7, BytesFetched: 175}
	if got := c.TotalFileTransfers(); got != 157 {
		t.Fatalf("transfers = %d", got)
	}
	if got := c.TotalBytesFetched(); got != 3925 {
		t.Fatalf("bytes = %v", got)
	}
}

func TestRedundantTransfers(t *testing.T) {
	c := NewCollector(2)
	c.Sites[0].FileTransfers = 120
	c.Sites[1].FileTransfers = 80
	c.DistinctFilesFetched = 150
	if got := c.RedundantTransfers(); got != 50 {
		t.Fatalf("redundant = %d", got)
	}
}

func TestSiteMeans(t *testing.T) {
	m := SiteMetrics{Requests: 4, WaitTimeSum: 100}
	if got := m.MeanWaitSec(); got != 25 {
		t.Fatalf("mean wait = %v", got)
	}
	empty := SiteMetrics{}
	if empty.MeanWaitSec() != 0 {
		t.Fatal("zero-request means not zero")
	}
}
