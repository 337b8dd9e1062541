// Package topology models hierarchical grid network topologies.
//
// It substitutes for the Tiers topology generator used in the paper
// (Doar, "A Better Model for Generating Test Networks", Globecom'96):
// a three-level WAN/MAN/LAN tree with per-tier bandwidth and latency
// distributions, grid sites attached to LAN nodes, and the global file
// server and scheduler attached to the WAN core.
package topology

import (
	"container/heap"
	"fmt"
)

// NodeID identifies a node in a Graph.
type NodeID int

// LinkID identifies a link in a Graph.
type LinkID int

// NodeKind classifies nodes by their role in the hierarchy.
type NodeKind int

// Node kinds. Sites host workers and a data server; the hub hosts the
// global scheduler and external file server.
const (
	KindWAN NodeKind = iota + 1
	KindMAN
	KindLAN
	KindSite
	KindFileServer
	KindScheduler
)

func (k NodeKind) String() string {
	switch k {
	case KindWAN:
		return "wan"
	case KindMAN:
		return "man"
	case KindLAN:
		return "lan"
	case KindSite:
		return "site"
	case KindFileServer:
		return "fileserver"
	case KindScheduler:
		return "scheduler"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Node is a vertex of the topology graph.
type Node struct {
	ID   NodeID   `json:"id"`
	Kind NodeKind `json:"kind"`
	Name string   `json:"name"`
}

// Link is an undirected edge with a bandwidth capacity and propagation
// latency. Bandwidth is in bytes/second, latency in seconds.
type Link struct {
	ID        LinkID  `json:"id"`
	A         NodeID  `json:"a"`
	B         NodeID  `json:"b"`
	Bandwidth float64 `json:"bandwidthBps"`
	Latency   float64 `json:"latencySec"`
}

// Route is a path through the graph as an ordered list of links, plus the
// summed propagation latency.
type Route struct {
	Links   []LinkID
	Latency float64
}

// Graph is an undirected multigraph of nodes and links.
type Graph struct {
	Nodes []Node
	Links []Link

	adj map[NodeID][]LinkID

	routeCache map[[2]NodeID]*Route
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		adj:        make(map[NodeID][]LinkID),
		routeCache: make(map[[2]NodeID]*Route),
	}
}

// AddNode appends a node of the given kind and returns its id.
func (g *Graph) AddNode(kind NodeKind, name string) NodeID {
	id := NodeID(len(g.Nodes))
	g.Nodes = append(g.Nodes, Node{ID: id, Kind: kind, Name: name})
	return id
}

// AddLink connects a and b with the given capacity (bytes/s) and latency
// (seconds) and returns the link id.
func (g *Graph) AddLink(a, b NodeID, bandwidth, latency float64) LinkID {
	if bandwidth <= 0 {
		panic(fmt.Sprintf("topology: non-positive bandwidth %v", bandwidth))
	}
	if latency < 0 {
		panic(fmt.Sprintf("topology: negative latency %v", latency))
	}
	id := LinkID(len(g.Links))
	g.Links = append(g.Links, Link{ID: id, A: a, B: b, Bandwidth: bandwidth, Latency: latency})
	g.adj[a] = append(g.adj[a], id)
	g.adj[b] = append(g.adj[b], id)
	return id
}

// Other returns the endpoint of link l that is not n.
func (g *Graph) Other(l LinkID, n NodeID) NodeID {
	link := g.Links[l]
	if link.A == n {
		return link.B
	}
	return link.A
}

type dijkstraItem struct {
	node NodeID
	dist float64
	seq  int
	idx  int
}

type dijkstraHeap []*dijkstraItem

func (h dijkstraHeap) Len() int { return len(h) }
func (h dijkstraHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].seq < h[j].seq
}
func (h dijkstraHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *dijkstraHeap) Push(x any) {
	it := x.(*dijkstraItem)
	it.idx = len(*h)
	*h = append(*h, it)
}
func (h *dijkstraHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// RouteBetween returns the minimum-latency route from a to b, computed with
// Dijkstra over link latencies and memoized. A cache miss settles the whole
// graph from a and caches the route to every reachable node — every
// simulated transfer shares the file server as one endpoint, so the
// per-destination routes would otherwise each pay a full Dijkstra anyway.
// It returns an error if b is unreachable from a.
func (g *Graph) RouteBetween(a, b NodeID) (*Route, error) {
	key := [2]NodeID{a, b}
	if r, ok := g.routeCache[key]; ok {
		return r, nil
	}
	if a == b {
		r := &Route{}
		g.routeCache[key] = r
		return r, nil
	}

	const unvisited = -1
	dist := make([]float64, len(g.Nodes))
	prevLink := make([]LinkID, len(g.Nodes))
	settled := make([]bool, len(g.Nodes))
	for i := range dist {
		dist[i] = -1
		prevLink[i] = unvisited
	}
	dist[a] = 0
	h := dijkstraHeap{{node: a, dist: 0}}
	seq := 0
	for h.Len() > 0 {
		it := heap.Pop(&h).(*dijkstraItem)
		if settled[it.node] {
			continue
		}
		settled[it.node] = true
		for _, lid := range g.adj[it.node] {
			next := g.Other(lid, it.node)
			if settled[next] {
				continue
			}
			nd := dist[it.node] + g.Links[lid].Latency
			if dist[next] < 0 || nd < dist[next] {
				dist[next] = nd
				prevLink[next] = lid
				seq++
				heap.Push(&h, &dijkstraItem{node: next, dist: nd, seq: seq})
			}
		}
	}
	if prevLink[b] == unvisited {
		return nil, fmt.Errorf("topology: node %d unreachable from %d", b, a)
	}
	for n := range g.Nodes {
		node := NodeID(n)
		if node == a || prevLink[node] == unvisited {
			continue
		}
		var links []LinkID
		for cur := node; cur != a; {
			lid := prevLink[cur]
			links = append(links, lid)
			cur = g.Other(lid, cur)
		}
		// Reverse into a-to-destination order.
		for i, j := 0, len(links)-1; i < j; i, j = i+1, j-1 {
			links[i], links[j] = links[j], links[i]
		}
		g.routeCache[[2]NodeID{a, node}] = &Route{Links: links, Latency: dist[node]}
	}
	r := g.routeCache[key]
	return r, nil
}
