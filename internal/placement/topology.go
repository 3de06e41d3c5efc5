package placement

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
)

// NodeID identifies a switch/NF host in a topology.
type NodeID int

// Edge is one directed adjacency (topologies are built undirected; both
// directions are materialized).
type Edge struct {
	To NodeID
	// CapBps is the link capacity in bits/second.
	CapBps float64
	// DelaySec is the propagation delay in seconds.
	DelaySec float64
}

// Topology is a network of NFV-capable switches.
type Topology struct {
	cores []int
	adj   [][]Edge
}

// NewTopology returns a topology with n isolated nodes, each with the
// given number of CPU cores (the paper's evaluation uses 2 per node).
func NewTopology(n, coresPerNode int) *Topology {
	t := &Topology{
		cores: make([]int, n),
		adj:   make([][]Edge, n),
	}
	for i := range t.cores {
		t.cores[i] = coresPerNode
	}
	return t
}

// N returns the number of nodes.
func (t *Topology) N() int { return len(t.adj) }

// Cores returns the core count of node i.
func (t *Topology) Cores(i NodeID) int { return t.cores[i] }

// SetCores overrides node i's core count.
func (t *Topology) SetCores(i NodeID, c int) { t.cores[i] = c }

// AddLink adds an undirected link with the given capacity and delay.
func (t *Topology) AddLink(a, b NodeID, capBps, delaySec float64) {
	t.adj[a] = append(t.adj[a], Edge{To: b, CapBps: capBps, DelaySec: delaySec})
	t.adj[b] = append(t.adj[b], Edge{To: a, CapBps: capBps, DelaySec: delaySec})
}

// Neighbors returns the outgoing edges of i.
func (t *Topology) Neighbors(i NodeID) []Edge { return t.adj[i] }

// NumEdges returns the number of undirected links.
func (t *Topology) NumEdges() int {
	n := 0
	for _, es := range t.adj {
		n += len(es)
	}
	return n / 2
}

// EdgeBetween returns the edge a→b if present.
func (t *Topology) EdgeBetween(a, b NodeID) (Edge, bool) {
	for _, e := range t.adj[a] {
		if e.To == b {
			return e, true
		}
	}
	return Edge{}, false
}

// pqItem is a Dijkstra heap entry.
type pqItem struct {
	node NodeID
	dist float64
}
type pq []pqItem

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any          { old := *q; it := old[len(old)-1]; *q = old[:len(old)-1]; return it }

// ShortestPath returns the minimum-delay path from a to b (inclusive) and
// its total delay. ok is false when b is unreachable.
func (t *Topology) ShortestPath(a, b NodeID) (path []NodeID, delay float64, ok bool) {
	n := t.N()
	dist := make([]float64, n)
	prev := make([]NodeID, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[a] = 0
	q := &pq{{node: a}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.dist > dist[it.node] {
			continue
		}
		if it.node == b {
			break
		}
		for _, e := range t.adj[it.node] {
			nd := it.dist + e.DelaySec
			if nd < dist[e.To] {
				dist[e.To] = nd
				prev[e.To] = it.node
				heap.Push(q, pqItem{node: e.To, dist: nd})
			}
		}
	}
	if math.IsInf(dist[b], 1) {
		return nil, 0, false
	}
	for at := b; at != -1; at = prev[at] {
		path = append(path, at)
		if at == a {
			break
		}
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, dist[b], true
}

// HopDistances returns BFS hop counts from src to every node (-1 =
// unreachable); used for candidate-set pruning in the placement MILP.
func (t *Topology) HopDistances(src NodeID) []int {
	d := make([]int, t.N())
	for i := range d {
		d[i] = -1
	}
	d[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range t.adj[u] {
			if d[e.To] < 0 {
				d[e.To] = d[u] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return d
}

// Line builds a linear chain of n nodes.
func Line(n, cores int, capBps, delaySec float64) *Topology {
	t := NewTopology(n, cores)
	for i := 0; i < n-1; i++ {
		t.AddLink(NodeID(i), NodeID(i+1), capBps, delaySec)
	}
	return t
}

// Rocketfuel22 synthesizes the AS-16631-scale topology used in §3.5: 22
// nodes, 64 undirected edges, preferential-attachment degree skew,
// deterministic for a given seed. Link capacity and delay are uniform, as
// the paper's experiment assumes homogeneous links.
func Rocketfuel22(seed int64, capBps, delaySec float64) *Topology {
	const n, targetEdges = 22, 64
	rng := rand.New(rand.NewSource(seed))
	t := NewTopology(n, 2)
	type pair struct{ a, b NodeID }
	have := map[pair]bool{}
	addUnique := func(a, b NodeID) bool {
		if a == b {
			return false
		}
		if a > b {
			a, b = b, a
		}
		if have[pair{a, b}] {
			return false
		}
		have[pair{a, b}] = true
		t.AddLink(a, b, capBps, delaySec)
		return true
	}
	// Seed with a ring so the graph is connected.
	for i := 0; i < n; i++ {
		addUnique(NodeID(i), NodeID((i+1)%n))
	}
	// Preferential attachment for the remaining edges.
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 2
	}
	edges := n
	for edges < targetEdges {
		a := NodeID(rng.Intn(n))
		// Pick b proportionally to degree.
		total := 0
		for _, d := range degree {
			total += d
		}
		r := rng.Intn(total)
		b := NodeID(0)
		for i, d := range degree {
			if r < d {
				b = NodeID(i)
				break
			}
			r -= d
		}
		if addUnique(a, b) {
			degree[a]++
			degree[b]++
			edges++
		}
	}
	return t
}

// String summarizes the topology.
func (t *Topology) String() string {
	return fmt.Sprintf("topology(%d nodes, %d edges)", t.N(), t.NumEdges())
}
