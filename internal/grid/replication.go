package grid

import (
	"fmt"
	"math/rand"

	"gridsched/internal/sim"
	"gridsched/internal/trace"
	"gridsched/internal/workload"
)

// ReplicationStrategy selects the target site for a proactive replica.
type ReplicationStrategy int

// Strategies from Ranganathan & Foster [13]: replicate popular data to a
// random site or to the least-loaded site (here: the site with the fewest
// queued batch requests).
const (
	ReplicateRandom ReplicationStrategy = iota + 1
	ReplicateLeastLoaded
)

func (s ReplicationStrategy) String() string {
	switch s {
	case ReplicateRandom:
		return "random"
	case ReplicateLeastLoaded:
		return "least-loaded"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// ReplicationConfig enables the paper's §3.1 "data replication" mechanism:
// the external file server tracks per-file fetch popularity and pushes
// files whose popularity crosses Threshold to other sites, in the
// background. Threshold = 0 disables the mechanism.
type ReplicationConfig struct {
	// Threshold is the fetch count at which a file becomes replication-
	// worthy (each file is proactively replicated at most once).
	Threshold int `json:"threshold"`
	// IntervalSec is the popularity-scan period.
	IntervalSec float64 `json:"intervalSec"`
	// MaxPerInterval bounds pushes per scan so replication cannot flood
	// the network.
	MaxPerInterval int                 `json:"maxPerInterval"`
	Strategy       ReplicationStrategy `json:"strategy"`
}

// normalize fills defaults; the zero config stays disabled.
func (c *ReplicationConfig) normalize() error {
	if c.Threshold == 0 {
		return nil
	}
	if c.Threshold < 0 {
		return fmt.Errorf("grid: replication threshold %d", c.Threshold)
	}
	if c.IntervalSec == 0 {
		c.IntervalSec = 3600
	}
	if c.IntervalSec < 0 {
		return fmt.Errorf("grid: replication interval %v", c.IntervalSec)
	}
	if c.MaxPerInterval == 0 {
		c.MaxPerInterval = 64
	}
	if c.MaxPerInterval < 0 {
		return fmt.Errorf("grid: replication MaxPerInterval %d", c.MaxPerInterval)
	}
	if c.Strategy == 0 {
		c.Strategy = ReplicateRandom
	}
	if c.Strategy != ReplicateRandom && c.Strategy != ReplicateLeastLoaded {
		return fmt.Errorf("grid: unknown replication strategy %v", c.Strategy)
	}
	return nil
}

// replicator is the background popularity-driven push process.
func (e *engine) replicator(p *sim.Proc) {
	cfg := e.cfg.Replication
	rng := rand.New(rand.NewSource(0x5eed))
	pushed := make([]bool, e.cfg.Workload.NumFiles)
	for e.remaining > 0 {
		p.Sleep(cfg.IntervalSec)
		budget := cfg.MaxPerInterval
		for f := workload.FileID(0); int(f) < len(e.fetchCount) && budget > 0; f++ {
			if pushed[f] || int(e.fetchCount[f]) < cfg.Threshold {
				continue
			}
			pushed[f] = true
			target, ok := e.pickReplicaTarget(rng, f)
			if !ok {
				continue // every site already has it
			}
			budget--
			if err := e.net.Transfer(p, e.topo.FileServer, e.sites[target], e.cfg.FileSizeBytes); err != nil {
				panic(fmt.Sprintf("grid: replication push: %v", err))
			}
			added, evicted := e.stores[target].Preload(f)
			if !added {
				continue // raced with a batch fetch during the push
			}
			e.col.Sites[target].ProactiveReplicas++
			e.sched.NoteBatch(target, nil, []workload.FileID{f}, evicted)
			e.emit(p.Now(), trace.FileReplicated, coreRefForSite(target), -1, 1)
		}
	}
}

// pickReplicaTarget chooses a site that does not already hold f.
func (e *engine) pickReplicaTarget(rng *rand.Rand, f workload.FileID) (int, bool) {
	var candidates []int
	for site := 0; site < e.cfg.Sites; site++ {
		if !e.stores[site].Contains(f) {
			candidates = append(candidates, site)
		}
	}
	if len(candidates) == 0 {
		return 0, false
	}
	switch e.cfg.Replication.Strategy {
	case ReplicateLeastLoaded:
		best := candidates[0]
		for _, site := range candidates[1:] {
			if e.queues[site].Len() < e.queues[best].Len() {
				best = site
			}
		}
		return best, true
	default:
		return candidates[rng.Intn(len(candidates))], true
	}
}
