package netsim

import (
	"fmt"
	"testing"

	"repro/internal/classical"
	"repro/internal/nv"
)

// TestMakePartitionTable checks the structural invariants of the contiguous
// partitioner across representative topologies and shard counts: every node
// and link covered exactly once, every link owned by its lower endpoint's
// shard, and balanced node blocks.
func TestMakePartitionTable(t *testing.T) {
	specs := []Spec{Chain(16), Star(8), Grid(4, 4), Dragonfly(4, 5)}
	for _, spec := range specs {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/%d-shards", spec.Name, shards), func(t *testing.T) {
				p, err := MakePartition(spec, shards)
				if err != nil {
					t.Fatal(err)
				}
				if len(p.NodeShard) != spec.Nodes || len(p.LinkShard) != len(spec.sortedEdges()) {
					t.Fatalf("partition covers %d of %d nodes and %d of %d links",
						len(p.NodeShard), spec.Nodes, len(p.LinkShard), len(spec.sortedEdges()))
				}
				if p.Shards != shards {
					t.Fatalf("Shards = %d, want %d", p.Shards, shards)
				}
				// Shard loads stay balanced: contiguous blocks differ by at
				// most one node.
				count := make([]int, shards)
				for _, s := range p.NodeShard {
					count[s]++
				}
				lo, hi := spec.Nodes, 0
				for _, c := range count {
					if c < lo {
						lo = c
					}
					if c > hi {
						hi = c
					}
				}
				if hi-lo > 1 {
					t.Fatalf("unbalanced node blocks: %v", count)
				}
				for li, e := range spec.sortedEdges() {
					if sa := p.NodeShard[e.A]; p.LinkShard[li] != sa {
						t.Fatalf("link %d (%d-%d) owned by shard %d, want lower endpoint's shard %d", li, e.A, e.B, p.LinkShard[li], sa)
					}
				}
				if cut := cutEdges(spec, p); shards == 1 && len(cut) != 0 {
					t.Fatalf("single-shard partition cuts %d edges", len(cut))
				}
			})
		}
	}
}

// cutEdges lists the edges whose endpoints the partition puts in different
// shards.
func cutEdges(spec Spec, p *Partition) []Edge {
	var cut []Edge
	for _, e := range spec.sortedEdges() {
		if p.NodeShard[e.A] != p.NodeShard[e.B] {
			cut = append(cut, e)
		}
	}
	return cut
}

// TestChainPartitionCutCount: a chain split into contiguous blocks cuts
// exactly shards-1 edges — the partitioner must not do worse on the topology
// where the optimum is obvious.
func TestChainPartitionCutCount(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		p, err := MakePartition(Chain(16), shards)
		if err != nil {
			t.Fatal(err)
		}
		if cut := cutEdges(Chain(16), p); len(cut) != shards-1 {
			t.Fatalf("%d shards: chain-16 cut %d edges, want %d", shards, len(cut), shards-1)
		}
	}
}

// TestDragonflyPartitionCutsOnlyGlobalLinks: with one shard per group, the
// group-major node layout must keep every intra-group (local) link internal;
// only the M·(M−1)/2 global links cross shards.
func TestDragonflyPartitionCutsOnlyGlobalLinks(t *testing.T) {
	const k, m = 4, 5
	spec := Dragonfly(k, m)
	p, err := MakePartition(spec, m)
	if err != nil {
		t.Fatal(err)
	}
	cut := cutEdges(spec, p)
	if want := m * (m - 1) / 2; len(cut) != want {
		t.Fatalf("cut %d edges, want exactly the %d global links", len(cut), want)
	}
	for _, e := range cut {
		if e.A/k == e.B/k {
			t.Fatalf("intra-group link %d-%d crossed shards", e.A, e.B)
		}
	}
}

func TestMakePartitionRejections(t *testing.T) {
	if _, err := MakePartition(Chain(4), 0); err == nil {
		t.Error("accepted 0 shards")
	}
	if _, err := MakePartition(Chain(4), 5); err == nil {
		t.Error("accepted more shards than nodes")
	}
	if _, err := MakePartition(Spec{Nodes: 2}, 1); err == nil {
		t.Error("accepted an invalid spec")
	}
}

// TestDragonflyStructure pins down the D3(K,M) generator: node and edge
// counts, the complete intra-group graphs, exactly one global link per group
// pair, and the round-robin port spread that gives every router of D3(4,5)
// exactly one global link.
func TestDragonflyStructure(t *testing.T) {
	const k, m = 4, 5
	spec := Dragonfly(k, m)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if spec.Nodes != k*m {
		t.Fatalf("nodes = %d, want %d", spec.Nodes, k*m)
	}
	local := m * k * (k - 1) / 2
	global := m * (m - 1) / 2
	if len(spec.Edges) != local+global {
		t.Fatalf("edges = %d, want %d local + %d global", len(spec.Edges), local, global)
	}
	// Intra-group completeness and global-pair coverage.
	groupPairs := map[[2]int]int{}
	intra := map[int]int{}
	for _, e := range spec.Edges {
		ga, gb := e.A/k, e.B/k
		if ga == gb {
			intra[ga]++
		} else {
			groupPairs[[2]int{ga, gb}]++
		}
	}
	for g := 0; g < m; g++ {
		if intra[g] != k*(k-1)/2 {
			t.Fatalf("group %d has %d local links, want complete graph with %d", g, intra[g], k*(k-1)/2)
		}
	}
	for ga := 0; ga < m; ga++ {
		for gb := ga + 1; gb < m; gb++ {
			if groupPairs[[2]int{ga, gb}] != 1 {
				t.Fatalf("groups %d and %d joined by %d global links, want 1", ga, gb, groupPairs[[2]int{ga, gb}])
			}
		}
	}
	// With M−1 = K the round-robin leaves every router exactly one global
	// link, so all degrees are (K−1)+1.
	for i, d := range spec.Degrees() {
		if d != k {
			t.Fatalf("router %d has degree %d, want %d", i, d, k)
		}
	}
}

func TestDragonflyRejectsDegenerateShapes(t *testing.T) {
	for _, c := range [][2]int{{1, 5}, {4, 1}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Dragonfly(%d, %d) did not panic", c[0], c[1])
				}
			}()
			Dragonfly(c[0], c[1])
		}()
	}
}

func TestResolveTopologyDragonfly(t *testing.T) {
	spec, err := ResolveTopology("dragonfly", 20, "")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Nodes != 20 || spec.Name != "dragonfly-4x5" {
		t.Fatalf("20 nodes resolved to %s with %d nodes, want dragonfly-4x5", spec.Name, spec.Nodes)
	}
	// A prime node count has no K·M factorisation with K,M ≥ 2.
	if _, err := ResolveTopology("dragonfly", 7, ""); err == nil {
		t.Fatal("prime node count accepted for a dragonfly")
	}
}

// TestShardedNetworkLayerRefused pins the serial-only network layer at
// netsim's seam: a sharded network hands out no network-layer port, not even
// between nodes of one shard, and refuses a network-layer handler, so no
// caller can send frames on a duplex owned by another shard.
func TestShardedNetworkLayerRefused(t *testing.T) {
	cfg := DefaultConfig(Chain(4), nv.ScenarioLab)
	cfg.Shards = 2 // nodes 0-1 on shard 0, nodes 2-3 on shard 1
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 3}} {
		if port, ok := nw.NetworkPort(e[0], e[1]); ok || port != nil {
			t.Errorf("sharded network handed out a network port %d->%d", e[0], e[1])
		}
	}
	for node := range nw.Nodes {
		if err := nw.RegisterNetworkHandler(node, func(classical.Message) {}); err == nil {
			t.Errorf("sharded network accepted a network-layer handler on node %d", node)
		}
	}

	serial, err := NewNetwork(DefaultConfig(Chain(4), nv.ScenarioLab))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := serial.NetworkPort(1, 2); !ok {
		t.Error("serial network has no network port between adjacent nodes")
	}
	if _, ok := serial.NetworkPort(0, 2); ok {
		t.Error("serial network handed out a port between non-adjacent nodes")
	}
	if err := serial.RegisterNetworkHandler(2, func(classical.Message) {}); err != nil {
		t.Errorf("serial network refused a network-layer handler: %v", err)
	}
}
