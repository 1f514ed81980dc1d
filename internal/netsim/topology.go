// Package netsim is the network layer above the paper's single heralded
// link: it instantiates N nodes and M links (chain, star and grid topologies
// plus explicit edge lists) on one shared deterministic simulator, with a
// full EGP+MHP+midpoint protocol stack per link, a per-node link registry
// that demultiplexes classical node-to-node traffic to the right EGP by link
// ID, and a multi-class workload engine issuing CREATE requests across
// links concurrently.
//
// The per-link state machines are deliberately independent — each link has
// its own distributed queue, midpoint and endpoint devices —
// so links never synchronise with each other (in the spirit of the scalable
// commutativity rule) and the whole network stays byte-deterministic for a
// fixed seed: everything runs single-threaded on one event queue.
package netsim

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Edge is one heralded link between two node indices.
type Edge struct {
	A, B int
}

// normalized returns the edge with the smaller index first; the smaller-index
// endpoint plays the "A" role of the paper's protocol (queue master).
func (e Edge) normalized() Edge {
	if e.A > e.B {
		return Edge{A: e.B, B: e.A}
	}
	return e
}

// Spec describes a topology: a node count and the links between them.
type Spec struct {
	Name  string
	Nodes int
	Edges []Edge
}

// Chain returns a linear chain of n nodes: n0-n1-...-n(n-1).
func Chain(n int) Spec {
	s := Spec{Name: fmt.Sprintf("chain-%d", n), Nodes: n}
	for i := 0; i+1 < n; i++ {
		s.Edges = append(s.Edges, Edge{A: i, B: i + 1})
	}
	return s
}

// Star returns a star of n nodes with node 0 at the centre.
func Star(n int) Spec {
	s := Spec{Name: fmt.Sprintf("star-%d", n), Nodes: n}
	for i := 1; i < n; i++ {
		s.Edges = append(s.Edges, Edge{A: 0, B: i})
	}
	return s
}

// Grid returns a rows×cols grid; node (r,c) has index r*cols+c and links to
// its right and down neighbours.
func Grid(rows, cols int) Spec {
	s := Spec{Name: fmt.Sprintf("grid-%dx%d", rows, cols), Nodes: rows * cols}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			idx := r*cols + c
			if c+1 < cols {
				s.Edges = append(s.Edges, Edge{A: idx, B: idx + 1})
			}
			if r+1 < rows {
				s.Edges = append(s.Edges, Edge{A: idx, B: idx + cols})
			}
		}
	}
	return s
}

// Dragonfly returns the D3(K,M) dragonfly of "The Swapped Dragonfly": M
// groups of K routers each, every group a complete graph, and exactly one
// global link between every pair of groups. Group g's global link to group
// h is terminated by router g·K + port, where the port cycles round-robin
// over the group's routers — so global links spread evenly and every router
// terminates at most ⌈(M−1)/K⌉ of them. Node indices are group-major
// (router r of group g is g·K + r), which keeps groups contiguous and lets
// the contiguous-block partitioner cut only global links.
func Dragonfly(k, m int) Spec {
	if k < 2 || m < 2 {
		panic(fmt.Sprintf("netsim: dragonfly needs K ≥ 2 routers per group and M ≥ 2 groups, got K=%d M=%d", k, m))
	}
	s := Spec{Name: fmt.Sprintf("dragonfly-%dx%d", k, m), Nodes: k * m}
	for g := 0; g < m; g++ {
		base := g * k
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				s.Edges = append(s.Edges, Edge{A: base + i, B: base + j})
			}
		}
	}
	// One global link per group pair; port[g] walks round-robin over group
	// g's routers as its global links are laid down in peer order.
	port := make([]int, m)
	for g := 0; g < m; g++ {
		for h := g + 1; h < m; h++ {
			s.Edges = append(s.Edges, Edge{A: g*k + port[g], B: h*k + port[h]})
			port[g] = (port[g] + 1) % k
			port[h] = (port[h] + 1) % k
		}
	}
	return s
}

// DragonflyShape picks the D3(K, M) shape of a dragonfly with the given
// node count. The factorisation is not unique, so it takes the most balanced
// K·M = nodes split: the largest divisor K ≤ √nodes with a valid cofactor,
// favouring square-ish groups.
func DragonflyShape(nodes int) (k, m int, err error) {
	for d := 2; d*d <= nodes; d++ {
		if nodes%d == 0 && nodes/d >= 2 {
			k = d
		}
	}
	if k == 0 {
		return 0, 0, fmt.Errorf("dragonfly topology needs a node count with a K·M factorisation (K,M ≥ 2), got %d", nodes)
	}
	return k, nodes / k, nil
}

// FromEdges returns a spec over an explicit edge list; the node count is
// inferred from the largest index referenced.
func FromEdges(edges []Edge) Spec {
	n := 0
	for _, e := range edges {
		if e.A+1 > n {
			n = e.A + 1
		}
		if e.B+1 > n {
			n = e.B + 1
		}
	}
	return Spec{Name: fmt.Sprintf("edges-%d", len(edges)), Nodes: n, Edges: edges}
}

// ResolveTopology resolves a scenario spec's topology kind, node count and
// edge list into a Spec: a named generator (chain/star/grid, with grid
// requiring a square node count) or an explicit edge list.
func ResolveTopology(topology string, nodes int, edgeList string) (Spec, error) {
	switch topology {
	case "chain":
		return Chain(nodes), nil
	case "star":
		return Star(nodes), nil
	case "grid":
		side := int(math.Sqrt(float64(nodes)))
		if side*side != nodes {
			return Spec{}, fmt.Errorf("grid topology needs a square node count, got %d", nodes)
		}
		return Grid(side, side), nil
	case "dragonfly":
		k, m, err := DragonflyShape(nodes)
		if err != nil {
			return Spec{}, err
		}
		return Dragonfly(k, m), nil
	case "edges":
		edges, err := ParseEdgeList(edgeList)
		if err != nil {
			return Spec{}, err
		}
		return FromEdges(edges), nil
	default:
		return Spec{}, fmt.Errorf("unknown topology %q (chain|star|grid|dragonfly|edges)", topology)
	}
}

// ParseEdgeList parses a comma-separated list of "a-b" pairs, e.g.
// "0-1,1-2,2-0".
func ParseEdgeList(s string) ([]Edge, error) {
	var edges []Edge
	for _, term := range strings.Split(s, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		parts := strings.SplitN(term, "-", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("netsim: edge %q is not of the form a-b", term)
		}
		a, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("netsim: edge %q: %v", term, err)
		}
		b, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, fmt.Errorf("netsim: edge %q: %v", term, err)
		}
		edges = append(edges, Edge{A: a, B: b})
	}
	if len(edges) == 0 {
		return nil, fmt.Errorf("netsim: empty edge list")
	}
	return edges, nil
}

// Validate checks the spec: at least two nodes, indices in range, no self
// loops and no duplicate links (parallel links between the same pair are
// allowed only through distinct explicit edges, which Validate rejects to
// keep link naming unambiguous).
func (s Spec) Validate() error {
	if s.Nodes < 2 {
		return fmt.Errorf("netsim: need at least 2 nodes, have %d", s.Nodes)
	}
	if len(s.Edges) == 0 {
		return fmt.Errorf("netsim: topology has no links")
	}
	seen := make(map[Edge]bool, len(s.Edges))
	for _, e := range s.Edges {
		if e.A == e.B {
			return fmt.Errorf("netsim: self-loop on node %d", e.A)
		}
		if e.A < 0 || e.A >= s.Nodes || e.B < 0 || e.B >= s.Nodes {
			return fmt.Errorf("netsim: edge %d-%d out of range for %d nodes", e.A, e.B, s.Nodes)
		}
		n := e.normalized()
		if seen[n] {
			return fmt.Errorf("netsim: duplicate link %d-%d", n.A, n.B)
		}
		seen[n] = true
	}
	return nil
}

// Degrees returns the per-node link counts.
func (s Spec) Degrees() []int {
	deg := make([]int, s.Nodes)
	for _, e := range s.Edges {
		deg[e.A]++
		deg[e.B]++
	}
	return deg
}

// String renders the spec compactly, e.g. "chain-8 (8 nodes, 7 links)".
func (s Spec) String() string {
	return fmt.Sprintf("%s (%d nodes, %d links)", s.Name, s.Nodes, len(s.Edges))
}

// sortedEdges returns the edges normalized and ordered (A, then B), giving
// every link a stable ID no matter how the spec was assembled.
func (s Spec) sortedEdges() []Edge {
	out := make([]Edge, len(s.Edges))
	for i, e := range s.Edges {
		out[i] = e.normalized()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}
