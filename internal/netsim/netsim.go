// Package netsim simulates wide-area data transfers at flow level.
//
// Concurrent flows share link capacity max-min fairly (progressive
// filling), the bandwidth-sharing model SimGrid uses for TCP-like flows.
// Whenever a flow starts or finishes, the rates of the affected flows are
// recomputed and their completion events rescheduled, so contention between
// sites transferring through shared WAN links is modeled continuously.
//
// # Scoped re-rating
//
// A flow arrival or departure can only change the allocation of flows it
// shares a link with, directly or transitively: the flow↔link bipartite
// graph decomposes into connected components, and max-min allocation is
// solved independently per component. rerate therefore recomputes only the
// component(s) touching the changed links — flows in other components keep
// their rates, remaining-byte trajectories, and completion events
// untouched, which is exact, not an approximation. Within the recomputed
// component the arithmetic (fair-share divisions, capacity subtractions,
// bottleneck tie-breaks) is performed in the same deterministic order as a
// global recomputation, so results are bit-identical to re-rating
// everything. All scratch state is reused across calls; the old
// implementation's per-call maps and sorting dominated the simulator's
// allocation profile.
package netsim

import (
	"fmt"
	"math"
	"sort"

	"gridsched/internal/sim"
	"gridsched/internal/topology"
)

// completionSlack guards against floating-point drift when rescheduling
// completion events: a flow whose remaining bytes fall below this many
// bytes is considered finished.
const completionSlack = 1e-6

// Flow is an active transfer between two nodes.
type Flow struct {
	ID        int
	Src, Dst  topology.NodeID
	Bytes     float64 // total payload
	remaining float64
	rate      float64 // current allocation, bytes/s
	route     []topology.LinkID
	completed *sim.Event
	done      *sim.Signal
	started   sim.Time
	updated   sim.Time // last time remaining was settled

	// progressive-filling scratch state
	frozen   bool
	prevRate float64
	mark     uint32 // component-walk visitation epoch
}

// Stats aggregates network activity over a run.
type Stats struct {
	FlowsStarted   int
	FlowsCompleted int
	BytesDelivered float64
	// LinkBytes accumulates payload bytes carried per link (a flow's bytes
	// count once on every link of its route).
	LinkBytes map[topology.LinkID]float64
}

// Network is the flow-level simulator bound to a kernel and a graph.
type Network struct {
	k      *sim.Kernel
	g      *topology.Graph
	active []*Flow // ascending flow ID (IDs are assigned monotonically)
	seq    int
	stats  Stats

	// linkFlows registers, per link, the active flows routed across it.
	// Maintained on flow start/finish; element order within a link is
	// irrelevant (see the order analysis on rerate).
	linkFlows [][]*Flow

	// Re-rate scratch, reused across calls. linkMark/flow marks carry an
	// epoch instead of being cleared; capacity/unfrozen are reinitialized
	// only for the links of the recomputed component.
	epoch     uint32
	linkMark  []uint32
	capacity  []float64
	unfrozen  []int32
	compFlows []*Flow           // ascending flow ID
	compLinks []topology.LinkID // ascending link ID
	queue     []topology.LinkID // the component walk's frontier, in discovery order
}

// New returns a Network simulating transfers over g, driven by k.
func New(k *sim.Kernel, g *topology.Graph) *Network {
	links := len(g.Links)
	return &Network{
		k:         k,
		g:         g,
		stats:     Stats{LinkBytes: make(map[topology.LinkID]float64)},
		linkFlows: make([][]*Flow, links),
		linkMark:  make([]uint32, links),
		capacity:  make([]float64, links),
		unfrozen:  make([]int32, links),
	}
}

// Transfer moves bytes from src to dst, blocking the calling process for the
// route propagation latency plus the congestion-dependent transfer time.
// A zero-byte transfer still pays the route latency (a request round-trip).
func (n *Network) Transfer(p *sim.Proc, src, dst topology.NodeID, bytes float64) error {
	route, err := n.g.RouteBetween(src, dst)
	if err != nil {
		return err
	}
	if route.Latency > 0 {
		p.Sleep(route.Latency)
	}
	if bytes <= 0 {
		return nil
	}
	f, err := n.StartFlow(src, dst, bytes)
	if err != nil {
		return err
	}
	f.done.Wait(p)
	return nil
}

// StartFlow begins a transfer and returns the flow; f.done fires on
// completion. Most callers want Transfer instead.
func (n *Network) StartFlow(src, dst topology.NodeID, bytes float64) (*Flow, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("netsim: non-positive flow size %v", bytes)
	}
	route, err := n.g.RouteBetween(src, dst)
	if err != nil {
		return nil, err
	}
	if len(route.Links) == 0 {
		return nil, fmt.Errorf("netsim: src %d and dst %d are the same node", src, dst)
	}
	n.seq++
	f := &Flow{
		ID:        n.seq,
		Src:       src,
		Dst:       dst,
		Bytes:     bytes,
		remaining: bytes,
		route:     route.Links,
		done:      sim.NewSignal(n.k),
		started:   n.k.Now(),
		updated:   n.k.Now(),
	}
	n.active = append(n.active, f) // IDs are monotonic: stays sorted
	for _, lid := range f.route {
		n.linkFlows[lid] = append(n.linkFlows[lid], f)
	}
	n.stats.FlowsStarted++
	n.rerate(f.route)
	return f, nil
}

// rerate recomputes the max-min fair rates of every flow in the connected
// component(s) of the given changed links and reschedules the completion
// events of flows whose rate changed. Called on each flow arrival and
// departure with the arriving/departing flow's route.
//
// Determinism: all order-sensitive arithmetic iterates flow-ID- and
// link-ID-sorted slices, never maps — max-min allocation is unique, but
// floating-point accumulation order is not, and an order-dependent rounding
// difference would break deterministic replay. The per-link flow registry
// is deliberately unordered: within one filling round every frozen flow
// subtracts the same share from a link, so the subtraction order cannot
// change the result, and the bottleneck scan and progress charging — which
// are order-sensitive — run over the sorted component slices.
func (n *Network) rerate(changed []topology.LinkID) {
	now := n.k.Now()

	// Collect the component(s) of the changed links over the flow↔link
	// bipartite graph.
	n.epoch++
	e := n.epoch
	n.compFlows = n.compFlows[:0]
	n.queue = n.queue[:0]
	for _, lid := range changed {
		if n.linkMark[lid] != e {
			n.linkMark[lid] = e
			n.queue = append(n.queue, lid)
		}
	}
	for qi := 0; qi < len(n.queue); qi++ {
		lid := n.queue[qi]
		for _, f := range n.linkFlows[lid] {
			if f.mark == e {
				continue
			}
			f.mark = e
			n.compFlows = append(n.compFlows, f)
			for _, l2 := range f.route {
				if n.linkMark[l2] != e {
					n.linkMark[l2] = e
					n.queue = append(n.queue, l2)
				}
			}
		}
	}
	if len(n.compFlows) == 0 {
		return // the departing flow was alone on its links
	}
	// Components are small (tens of flows); insertion sort beats the generic
	// sort's overhead here and allocates nothing.
	for i := 1; i < len(n.compFlows); i++ {
		for j := i; j > 0 && n.compFlows[j].ID < n.compFlows[j-1].ID; j-- {
			n.compFlows[j], n.compFlows[j-1] = n.compFlows[j-1], n.compFlows[j]
		}
	}
	// The component's links in ascending id are the marked entries between
	// the lowest and the highest link the walk reached: one pass over part
	// of the mark array, where sorting the walk's discovery order cost a
	// comparison per pair of links.
	lo, hi := n.queue[0], n.queue[0]
	for _, lid := range n.queue[1:] {
		lo, hi = min(lo, lid), max(hi, lid)
	}
	n.compLinks = n.compLinks[:0]
	for lid := lo; lid <= hi; lid++ {
		if n.linkMark[lid] == e {
			n.compLinks = append(n.compLinks, lid)
		}
	}

	// 1. Charge progress since each flow's last settlement.
	for _, f := range n.compFlows {
		f.remaining -= f.rate * (now - f.updated)
		if f.remaining < 0 {
			f.remaining = 0
		}
		f.updated = now
		f.frozen = false
		f.prevRate = f.rate
	}

	// 2. Progressive filling over the component. Every flow registered on
	// a component link is in the component by construction, so the
	// unfrozen counters can start from the registry sizes.
	for _, lid := range n.compLinks {
		n.capacity[lid] = n.g.Links[lid].Bandwidth
		n.unfrozen[lid] = int32(len(n.linkFlows[lid]))
	}
	left := len(n.compFlows)
	for left > 0 {
		// Find the bottleneck: the link with the smallest fair share among
		// links that still carry unfrozen flows. Ties resolve to the lowest
		// link id (same allocation either way; the tie-break keeps the
		// floating-point accumulation order reproducible).
		bottleneck := topology.LinkID(-1)
		share := math.MaxFloat64
		for _, lid := range n.compLinks {
			cnt := n.unfrozen[lid]
			if cnt == 0 {
				continue
			}
			if s := n.capacity[lid] / float64(cnt); s < share {
				share = s
				bottleneck = lid
			}
		}
		if bottleneck < 0 {
			break
		}
		// Freeze every unfrozen flow through the bottleneck at the fair
		// share and charge its rate against the rest of its route.
		for _, f := range n.linkFlows[bottleneck] {
			if f.frozen {
				continue
			}
			f.frozen = true
			f.rate = share
			left--
			for _, lid := range f.route {
				n.capacity[lid] -= share
				if n.capacity[lid] < 0 {
					n.capacity[lid] = 0
				}
				n.unfrozen[lid]--
			}
		}
	}

	// 3. Reschedule completions — only where the rate actually changed.
	// An unchanged rate means the previously scheduled completion time
	// still lies on the flow's (linear) remaining-bytes trajectory.
	//
	// Tie semantics: two flows completing at the exact same virtual time
	// fire in event-scheduling order, so a flow that kept an older event
	// fires before one rescheduled later regardless of flow ID. The
	// pre-scoping implementation rescheduled every flow on every re-rate,
	// which resolved such ties in flow-ID order instead. Either order is
	// fully deterministic under replay; only the (measure-zero) exact-tie
	// interleaving relative to the old implementation differs.
	for _, f := range n.compFlows {
		if f.rate == f.prevRate && f.completed != nil {
			continue
		}
		if f.rate <= 0 {
			// No capacity at all (should not happen with positive link
			// capacities); leave the flow stalled until the next re-rate.
			if f.completed != nil {
				n.k.Unschedule(f.completed)
				f.completed = nil
			}
			continue
		}
		eta := f.remaining / f.rate
		if f.remaining <= completionSlack {
			eta = 0
		}
		// A flow is re-rated many times before it completes: its one event
		// and one callback are made the first time and moved after that.
		if f.completed != nil {
			n.k.Reschedule(f.completed, eta)
			continue
		}
		ff := f
		f.completed = n.k.Schedule(eta, func() { n.finish(ff) })
	}
}

func (n *Network) finish(f *Flow) {
	i := sort.Search(len(n.active), func(i int) bool { return n.active[i].ID >= f.ID })
	n.active = append(n.active[:i], n.active[i+1:]...)
	for _, lid := range f.route {
		lf := n.linkFlows[lid]
		for j, ff := range lf {
			if ff == f {
				last := len(lf) - 1
				lf[j] = lf[last]
				lf[last] = nil
				n.linkFlows[lid] = lf[:last]
				break
			}
		}
	}
	f.completed = nil
	f.remaining = 0
	f.rate = 0
	n.stats.FlowsCompleted++
	n.stats.BytesDelivered += f.Bytes
	for _, lid := range f.route {
		n.stats.LinkBytes[lid] += f.Bytes
	}
	n.rerate(f.route)
	f.done.Fire(f)
}
