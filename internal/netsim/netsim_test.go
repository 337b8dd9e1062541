package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gridsched/internal/sim"
	"gridsched/internal/topology"
)

// line builds a graph a -[cap,lat]- b and returns (graph, a, b).
func line(capacity, latency float64) (*topology.Graph, topology.NodeID, topology.NodeID) {
	g := topology.NewGraph()
	a := g.AddNode(topology.KindSite, "a")
	b := g.AddNode(topology.KindFileServer, "b")
	g.AddLink(a, b, capacity, latency)
	return g, a, b
}

func almost(a, b float64) bool {
	return math.Abs(a-b) < 1e-6*(1+math.Abs(a)+math.Abs(b))
}

func TestSingleFlowTransferTime(t *testing.T) {
	g, a, b := line(100, 0.5) // 100 B/s, 0.5 s latency
	k := sim.NewKernel()
	n := New(k, g)
	var end sim.Time
	k.Go("xfer", func(p *sim.Proc) {
		if err := n.Transfer(p, a, b, 1000); err != nil {
			t.Errorf("transfer: %v", err)
		}
		end = p.Now()
	})
	k.Run()
	if !almost(end, 10.5) { // 0.5 latency + 1000/100
		t.Fatalf("end = %v, want 10.5", end)
	}
	st := n.stats
	if st.FlowsCompleted != 1 || !almost(st.BytesDelivered, 1000) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestZeroByteTransferPaysOnlyLatency(t *testing.T) {
	g, a, b := line(100, 0.25)
	k := sim.NewKernel()
	n := New(k, g)
	var end sim.Time
	k.Go("xfer", func(p *sim.Proc) {
		if err := n.Transfer(p, a, b, 0); err != nil {
			t.Errorf("transfer: %v", err)
		}
		end = p.Now()
	})
	k.Run()
	if !almost(end, 0.25) {
		t.Fatalf("end = %v, want 0.25", end)
	}
}

func TestTwoFlowsShareLinkFairly(t *testing.T) {
	g, a, b := line(100, 0)
	k := sim.NewKernel()
	n := New(k, g)
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		k.Go("xfer", func(p *sim.Proc) {
			if err := n.Transfer(p, a, b, 1000); err != nil {
				t.Errorf("transfer: %v", err)
			}
			ends = append(ends, p.Now())
		})
	}
	k.Run()
	// Each flow gets 50 B/s while both are active; both finish at t=20.
	if len(ends) != 2 || !almost(ends[0], 20) || !almost(ends[1], 20) {
		t.Fatalf("ends = %v, want [20 20]", ends)
	}
}

func TestLateFlowRerates(t *testing.T) {
	g, a, b := line(100, 0)
	k := sim.NewKernel()
	n := New(k, g)
	var endA, endB sim.Time
	k.Go("first", func(p *sim.Proc) {
		if err := n.Transfer(p, a, b, 1000); err != nil {
			t.Errorf("transfer: %v", err)
		}
		endA = p.Now()
	})
	k.Go("second", func(p *sim.Proc) {
		p.Sleep(5)
		if err := n.Transfer(p, a, b, 250); err != nil {
			t.Errorf("transfer: %v", err)
		}
		endB = p.Now()
	})
	k.Run()
	// First flow: 5 s at 100 B/s (500 B), then shares at 50 B/s.
	// Second flow: 250 B at 50 B/s, done at t=10; first then finishes the
	// remaining 250 B at 100 B/s, done at t=12.5.
	if !almost(endB, 10) {
		t.Fatalf("endB = %v, want 10", endB)
	}
	if !almost(endA, 12.5) {
		t.Fatalf("endA = %v, want 12.5", endA)
	}
}

// TestMaxMinClassic checks the textbook 2-link example: flow X crosses both
// links, flow Y only link 1, flow Z only link 2. With caps c1=100, c2=200:
// X and Y share link 1 at 50 each; Z gets the rest of link 2 (150).
func TestMaxMinClassic(t *testing.T) {
	g := topology.NewGraph()
	n0 := g.AddNode(topology.KindSite, "n0")
	n1 := g.AddNode(topology.KindWAN, "n1")
	n2 := g.AddNode(topology.KindFileServer, "n2")
	g.AddLink(n0, n1, 100, 0)
	g.AddLink(n1, n2, 200, 0)

	k := sim.NewKernel()
	nw := New(k, g)

	var x, y, z *Flow
	k.Schedule(0, func() {
		var err error
		if x, err = nw.StartFlow(n0, n2, 1e9); err != nil {
			t.Errorf("x: %v", err)
		}
		if y, err = nw.StartFlow(n0, n1, 1e9); err != nil {
			t.Errorf("y: %v", err)
		}
		if z, err = nw.StartFlow(n1, n2, 1e9); err != nil {
			t.Errorf("z: %v", err)
		}
	})
	k.RunUntil(1) // let the start event fire; flows far from done
	if !almost(x.rate, 50) || !almost(y.rate, 50) || !almost(z.rate, 150) {
		t.Fatalf("rates = %v %v %v, want 50 50 150", x.rate, y.rate, z.rate)
	}
}

func TestStartFlowErrors(t *testing.T) {
	g, a, b := line(100, 0)
	k := sim.NewKernel()
	n := New(k, g)
	if _, err := n.StartFlow(a, b, 0); err == nil {
		t.Fatal("accepted zero-byte flow")
	}
	if _, err := n.StartFlow(a, a, 10); err == nil {
		t.Fatal("accepted self flow")
	}
	c := g.AddNode(topology.KindSite, "c") // disconnected
	if _, err := n.StartFlow(a, c, 10); err == nil {
		t.Fatal("accepted unreachable flow")
	}
}

// Property: random staggered flows over a random tiers topology all
// complete, deliver their exact payload, and per-link capacity is never
// exceeded at re-rate points.
func TestRandomFlowsConservation(t *testing.T) {
	f := func(seed int64) bool {
		topo, err := topology.GenerateTiers(topology.DefaultTiersConfig(seed))
		if err != nil {
			return false
		}
		k := sim.NewKernel()
		n := New(k, topo.Graph)
		rng := rand.New(rand.NewSource(seed))
		const flows = 25
		completed := 0
		var totalBytes float64
		for i := 0; i < flows; i++ {
			src := topo.Sites[rng.Intn(len(topo.Sites))]
			bytes := 1e5 + rng.Float64()*1e7
			start := rng.Float64() * 30
			totalBytes += bytes
			k.Schedule(start, func() {
				fl, err := n.StartFlow(src, topo.FileServer, bytes)
				if err != nil {
					t.Errorf("start: %v", err)
					return
				}
				_ = fl
			})
		}
		k.Schedule(0, func() {}) // ensure kernel has work even if flows=0
		k.Run()
		completed = n.stats.FlowsCompleted
		if completed != flows {
			t.Errorf("completed %d of %d flows", completed, flows)
			return false
		}
		if !almost(n.stats.BytesDelivered, totalBytes) {
			t.Errorf("delivered %v, want %v", n.stats.BytesDelivered, totalBytes)
			return false
		}
		if len(n.active) != 0 {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Capacity invariant: at any re-rate, the sum of flow rates over a link
// must not exceed its capacity (within floating-point tolerance).
func TestLinkCapacityRespected(t *testing.T) {
	topo, err := topology.GenerateTiers(topology.DefaultTiersConfig(99))
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	n := New(k, topo.Graph)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 40; i++ {
		src := topo.Sites[rng.Intn(len(topo.Sites))]
		bytes := 1e6 + rng.Float64()*1e8
		k.Schedule(rng.Float64()*10, func() {
			if _, err := n.StartFlow(src, topo.FileServer, bytes); err != nil {
				t.Errorf("start: %v", err)
			}
		})
	}
	// Sample link loads at regular intervals.
	for step := 1; step <= 100; step++ {
		k.Schedule(float64(step), func() {
			load := make(map[topology.LinkID]float64)
			for _, f := range n.active {
				for _, lid := range f.route {
					load[lid] += f.rate
				}
			}
			for lid, l := range load {
				cap := topo.Graph.Links[lid].Bandwidth
				if l > cap*(1+1e-9) {
					t.Errorf("link %d overloaded: %v > %v", lid, l, cap)
				}
			}
		})
	}
	k.Run()
}

func TestNetworkDeterministicReplay(t *testing.T) {
	run := func() []sim.Time {
		topo, err := topology.GenerateTiers(topology.DefaultTiersConfig(3))
		if err != nil {
			t.Fatal(err)
		}
		k := sim.NewKernel()
		n := New(k, topo.Graph)
		rng := rand.New(rand.NewSource(17))
		var ends []sim.Time
		for i := 0; i < 30; i++ {
			src := topo.Sites[rng.Intn(len(topo.Sites))]
			bytes := 1e6 + rng.Float64()*1e7
			k.Schedule(rng.Float64()*5, func() {
				f, err := n.StartFlow(src, topo.FileServer, bytes)
				if err != nil {
					t.Errorf("start: %v", err)
					return
				}
				k.Go("wait", func(p *sim.Proc) {
					f.done.Wait(p)
					ends = append(ends, p.Now())
				})
			})
		}
		k.Run()
		return ends
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 30 {
		t.Fatalf("lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
