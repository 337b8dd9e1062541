package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGenerateTiersDefaultShape(t *testing.T) {
	cfg := DefaultTiersConfig(1)
	topo, err := GenerateTiers(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(topo.Sites), cfg.SiteCount(); got != want {
		t.Fatalf("sites = %d, want %d", got, want)
	}
	if len(topo.Sites) < 90 {
		t.Fatalf("sites = %d, want >= 90 to match the paper's setup", len(topo.Sites))
	}
	for _, s := range topo.Sites {
		if topo.Graph.Nodes[s].Kind != KindSite {
			t.Fatalf("node %d is %v, want site", s, topo.Graph.Nodes[s].Kind)
		}
	}
	if topo.Graph.Nodes[topo.FileServer].Kind != KindFileServer {
		t.Fatal("file server node has wrong kind")
	}
}

func TestGenerateTiersDeterministic(t *testing.T) {
	a, err := GenerateTiers(DefaultTiersConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTiers(DefaultTiersConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Graph.Links) != len(b.Graph.Links) {
		t.Fatalf("link counts differ: %d vs %d", len(a.Graph.Links), len(b.Graph.Links))
	}
	for i := range a.Graph.Links {
		la, lb := a.Graph.Links[i], b.Graph.Links[i]
		if la != lb {
			t.Fatalf("link %d differs: %+v vs %+v", i, la, lb)
		}
	}
}

func TestGenerateTiersSeedsDiffer(t *testing.T) {
	a, _ := GenerateTiers(DefaultTiersConfig(1))
	b, _ := GenerateTiers(DefaultTiersConfig(2))
	same := true
	for i := range a.Graph.Links {
		if a.Graph.Links[i].Bandwidth != b.Graph.Links[i].Bandwidth {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical link bandwidths")
	}
}

func TestAllSitesReachFileServer(t *testing.T) {
	topo, err := GenerateTiers(DefaultTiersConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range topo.Sites {
		r, err := topo.Graph.RouteBetween(s, topo.FileServer)
		if err != nil {
			t.Fatalf("site %d: %v", s, err)
		}
		if len(r.Links) == 0 {
			t.Fatalf("site %d: empty route", s)
		}
		if r.Latency <= 0 {
			t.Fatalf("site %d: latency %v", s, r.Latency)
		}
		// Route must be a connected walk from s to the file server.
		cur := s
		for _, lid := range r.Links {
			cur = topo.Graph.Other(lid, cur)
		}
		if cur != topo.FileServer {
			t.Fatalf("site %d: route does not end at file server", s)
		}
	}
}

func TestRouteSelfIsEmpty(t *testing.T) {
	topo, _ := GenerateTiers(DefaultTiersConfig(3))
	r, err := topo.Graph.RouteBetween(topo.FileServer, topo.FileServer)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Links) != 0 || r.Latency != 0 {
		t.Fatalf("self route = %+v, want empty", r)
	}
}

func TestRouteUnreachable(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(KindSite, "a")
	b := g.AddNode(KindSite, "b")
	if _, err := g.RouteBetween(a, b); err == nil {
		t.Fatal("expected unreachable error")
	}
}

func TestRouteIsMinimumLatency(t *testing.T) {
	// Triangle with a shortcut: a-b direct (lat 10) vs a-c-b (lat 1+1).
	g := NewGraph()
	a := g.AddNode(KindWAN, "a")
	b := g.AddNode(KindWAN, "b")
	c := g.AddNode(KindWAN, "c")
	g.AddLink(a, b, 1e6, 10)
	l1 := g.AddLink(a, c, 1e6, 1)
	l2 := g.AddLink(c, b, 1e6, 1)
	r, err := g.RouteBetween(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.Latency != 2 || len(r.Links) != 2 || r.Links[0] != l1 || r.Links[1] != l2 {
		t.Fatalf("route = %+v, want via c", r)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := DefaultTiersConfig(1)
	bad.WANNodes = 0
	if _, err := GenerateTiers(bad); err == nil {
		t.Fatal("accepted WANNodes=0")
	}
	bad = DefaultTiersConfig(1)
	bad.SitesPerLAN = 0
	if _, err := GenerateTiers(bad); err == nil {
		t.Fatal("accepted SitesPerLAN=0")
	}
	bad = DefaultTiersConfig(1)
	bad.WAN.BandwidthBps = 0
	if _, err := GenerateTiers(bad); err == nil {
		t.Fatal("accepted zero WAN bandwidth")
	}
}

// Property: any structurally valid config yields a connected topology with
// the predicted site count and all-positive link parameters.
func TestGenerateTiersProperty(t *testing.T) {
	f := func(seed int64, w, m, mn, l, s uint8) bool {
		cfg := DefaultTiersConfig(seed)
		cfg.WANNodes = 1 + int(w)%4
		cfg.MANsPerWANNode = 1 + int(m)%3
		cfg.MANNodes = 1 + int(mn)%3
		cfg.LANsPerMANNode = 1 + int(l)%3
		cfg.SitesPerLAN = 1 + int(s)%3
		topo, err := GenerateTiers(cfg)
		if err != nil {
			return false
		}
		if len(topo.Sites) != cfg.SiteCount() {
			return false
		}
		for _, link := range topo.Graph.Links {
			if link.Bandwidth <= 0 || link.Latency < 0 {
				return false
			}
		}
		for _, site := range topo.Sites {
			if _, err := topo.Graph.RouteBetween(site, topo.FileServer); err != nil {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedDistJitterBounds(t *testing.T) {
	d := SpeedDist{BandwidthBps: 100, LatencySec: 1, Jitter: 0.5}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		bw, lat := d.draw(rng)
		if bw < 50 || bw > 150 {
			t.Fatalf("bandwidth %v outside [50,150]", bw)
		}
		if lat < 0.5 || lat > 1.5 {
			t.Fatalf("latency %v outside [0.5,1.5]", lat)
		}
	}
}

func TestNodeKindString(t *testing.T) {
	for k, want := range map[NodeKind]string{
		KindWAN: "wan", KindMAN: "man", KindLAN: "lan", KindSite: "site",
		KindFileServer: "fileserver", KindScheduler: "scheduler", NodeKind(0): "kind(0)",
	} {
		if got := k.String(); got != want {
			t.Errorf("NodeKind(%d) = %q, want %q", int(k), got, want)
		}
	}
}
