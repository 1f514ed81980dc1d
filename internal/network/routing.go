package network

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/netsim"
	"repro/internal/quantum"
	"repro/internal/workload"
)

// CostFunc assigns a traversal cost to one link; path costs add. Costs must
// be positive so Dijkstra's invariants hold.
type CostFunc func(*netsim.Link) float64

// CostHops is the shortest-path baseline: every link costs 1.
func CostHops(*netsim.Link) float64 { return 1 }

// referenceAlpha is the bright-state population at which link quality is
// probed for routing costs: small enough to be near the hardware's best
// fidelity, large enough to generate at a useful rate.
const referenceAlpha = 0.1

// LinkQuality estimates a link's achievable fidelity and create-and-keep
// pair rate (pairs per second) at the reference generation setting, from the
// link's own fidelity estimation unit and platform constants. Both are
// deterministic functions of the hardware model, so every node computing
// routes sees identical values.
func LinkQuality(nw *netsim.Network, l *netsim.Link) (fidelity, rate float64) {
	feu := l.EGPA.FEU()
	fidelity = feu.BaseEstimate(referenceAlpha)
	seconds := feu.EstimateCompletionSeconds(1, referenceAlpha, true)
	if seconds > 0 && !math.IsInf(seconds, 1) {
		rate = 1 / seconds
	}
	return fidelity, rate
}

// CostFidelity favours high-fidelity paths: the cost is −log of the link's
// estimated Werner weight, so minimising the path sum maximises the composed
// end-to-end fidelity under the swap composition rule. Links too noisy to
// swap at all (weight ≤ 0) are effectively unusable.
func CostFidelity(nw *netsim.Network) CostFunc {
	return func(l *netsim.Link) float64 {
		f, _ := LinkQuality(nw, l)
		w := quantum.WernerWeight(f)
		if w <= 0 {
			return math.Inf(1)
		}
		return -math.Log(w)
	}
}

// CostRate favours high-throughput paths: the cost of a link is the expected
// seconds per create-and-keep pair, so minimising the path sum minimises the
// serial generation time of one end-to-end pair.
func CostRate(nw *netsim.Network) CostFunc {
	return func(l *netsim.Link) float64 {
		_, r := LinkQuality(nw, l)
		if r <= 0 {
			return math.Inf(1)
		}
		return 1 / r
	}
}

// CostByName resolves a cost-function name ("hops", "fidelity" or "rate")
// for CLI flag parsing.
func CostByName(nw *netsim.Network, name string) (CostFunc, bool) {
	switch name {
	case "", "hops":
		return CostHops, true
	case "fidelity":
		return CostFidelity(nw), true
	case "rate":
		return CostRate(nw), true
	default:
		return nil, false
	}
}

// Path is a loop-free route through the network: the node sequence and the
// link of every hop (Links[i] connects Nodes[i] and Nodes[i+1]).
type Path struct {
	Nodes []int
	Links []*netsim.Link
	Cost  float64
}

// Hops returns the number of links on the path.
func (p Path) Hops() int { return len(p.Links) }

// String renders the path as "n0>n1>n2".
func (p Path) String() string {
	s := ""
	for i, n := range p.Nodes {
		if i > 0 {
			s += ">"
		}
		s += fmt.Sprintf("n%d", n)
	}
	return s
}

// degradedCostFactor re-weights links in the Degraded admin state so routing
// prefers healthy alternatives but still crosses a degraded link when it is
// the only way through.
const degradedCostFactor = 8

// Router computes paths over a netsim topology with a pluggable link cost.
// Routes are computed once per (src, dst) pair and cached; the cost function
// is evaluated at construction so route choice is stable over a run. Link
// admin state modulates the static costs at search time — Down links are
// excluded, Degraded links re-weighted — and the fault injector's state
// transitions invalidate the cache (see Invalidate), so recomputed routes
// steer around failures.
type Router struct {
	nw    *netsim.Network
	costs []float64 // by LinkID
	// adjacency[n] lists (neighbour, link) in deterministic neighbour order.
	adjacency [][]adjEntry
	cache     map[[2]int]Path
}

type adjEntry struct {
	to   int
	link *netsim.Link
}

// NewRouter builds a router over the network with the given cost function
// (nil means CostHops).
func NewRouter(nw *netsim.Network, cost CostFunc) *Router {
	if cost == nil {
		cost = CostHops
	}
	r := &Router{
		nw:        nw,
		costs:     make([]float64, len(nw.Links)),
		adjacency: make([][]adjEntry, len(nw.Nodes)),
		cache:     make(map[[2]int]Path),
	}
	for i, l := range nw.Links {
		c := cost(l)
		if c <= 0 {
			c = 1e-12
		}
		r.costs[i] = c
		r.adjacency[l.Edge.A] = append(r.adjacency[l.Edge.A], adjEntry{to: l.Edge.B, link: l})
		r.adjacency[l.Edge.B] = append(r.adjacency[l.Edge.B], adjEntry{to: l.Edge.A, link: l})
	}
	return r
}

// Invalidate drops every cached route. The service calls it on each link
// admin-state transition so the next Path query sees the current topology.
func (r *Router) Invalidate() { clear(r.cache) }

// linkCost is a link's static cost modulated by its admin state.
func (r *Router) linkCost(l *netsim.Link) float64 {
	c := r.costs[l.ID]
	if l.State() == netsim.LinkDegraded {
		c *= degradedCostFactor
	}
	return c
}

// Path returns the minimum-cost route from src to dst, or an error when the
// nodes are disconnected or out of range.
func (r *Router) Path(src, dst int) (Path, error) {
	n := len(r.nw.Nodes)
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return Path{}, fmt.Errorf("network: node pair %d-%d out of range for %d nodes", src, dst, n)
	}
	if src == dst {
		return Path{}, fmt.Errorf("network: trivial path %d-%d", src, dst)
	}
	if p, ok := r.cache[[2]int{src, dst}]; ok {
		return p, nil
	}
	dist := make([]float64, n)
	prevNode := make([]int, n)
	prevLink := make([]*netsim.Link, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prevNode[i] = -1
	}
	dist[src] = 0
	for {
		// Settle the closest unsettled reachable node; ties break on node
		// index so the chosen paths are deterministic. On the service's small
		// topologies a linear scan is cheaper than a priority queue.
		u := -1
		for v, d := range dist {
			if !done[v] && !math.IsInf(d, 1) && (u < 0 || d < dist[u]) {
				u = v
			}
		}
		if u < 0 || u == dst {
			break
		}
		done[u] = true
		for _, e := range r.adjacency[u] {
			if e.link.State() == netsim.LinkDown {
				continue
			}
			if c := dist[u] + r.linkCost(e.link); c < dist[e.to] {
				dist[e.to] = c
				prevNode[e.to] = u
				prevLink[e.to] = e.link
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return Path{}, fmt.Errorf("network: nodes %d and %d are disconnected", src, dst)
	}
	p := Path{Cost: dist[dst]}
	for at := dst; at != -1; at = prevNode[at] {
		p.Nodes = append(p.Nodes, at)
		if prevLink[at] != nil {
			p.Links = append(p.Links, prevLink[at])
		}
	}
	slices.Reverse(p.Nodes)
	slices.Reverse(p.Links)
	r.cache[[2]int{src, dst}] = p
	return p, nil
}

// PerHopFidelityFloor inverts the end-to-end fidelity floor of a request
// into the per-link floor every hop must meet: the end-to-end Werner weight
// is the product of the per-hop weights (and the swap-gate factors), so each
// hop needs the hops-th root.
func PerHopFidelityFloor(e2eFloor float64, hops int, swapGateFidelity float64) float64 {
	if hops <= 1 {
		return e2eFloor
	}
	w := quantum.WernerWeight(e2eFloor)
	if w <= 0 {
		return e2eFloor
	}
	// hops-1 swaps contribute two gate factors each. A BSM at or below
	// fidelity 1/4 destroys all entanglement, so no per-hop floor can meet a
	// positive end-to-end floor: report the unreachable floor 1 and let
	// Create reject the request instead of silently dropping the gate term.
	g := quantum.DepolarizingWeightFactor(swapGateFidelity)
	if g <= 0 {
		return 1
	}
	w /= math.Pow(g, 2*float64(hops-1))
	if w >= 1 {
		return 1 // unreachable floor; Create will reject it
	}
	return quantum.WernerFidelity(math.Pow(w, 1/float64(hops)))
}

// EstimatePathSeconds returns a lower bound on the time to deliver numPairs
// end-to-end pairs over the path: the slowest hop's expected link-layer
// completion time at the per-hop fidelity floor (hops generate in parallel,
// so the bottleneck dominates). +Inf when any hop cannot reach the floor.
func EstimatePathSeconds(p Path, numPairs int, linkFloor float64) float64 {
	worst := 0.0
	for _, l := range p.Links {
		feu := l.EGPA.FEU()
		alpha, ok := feu.AlphaForFidelity(linkFloor)
		if !ok {
			return math.Inf(1)
		}
		if s := feu.EstimateCompletionSeconds(numPairs, alpha, true); s > worst {
			worst = s
		}
	}
	return worst
}

// PathPairRate estimates the end-to-end pair rate of a path at the given
// per-link fidelity floor: the bottleneck hop's create-and-keep pair rate
// (swapping consumes one pair per hop, and hops generate concurrently).
func PathPairRate(nw *netsim.Network, p Path, linkFloor float64) float64 {
	rate := math.Inf(1)
	for _, l := range p.Links {
		r := workload.RatePerSecond(l.EGPA.FEU(), nw.Platform, true, 1, linkFloor, 1)
		if r < rate {
			rate = r
		}
	}
	if math.IsInf(rate, 1) {
		return 0
	}
	return rate
}
