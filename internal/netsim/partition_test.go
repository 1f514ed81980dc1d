package netsim

import (
	"fmt"
	"testing"

	"repro/internal/classical"
	"repro/internal/nv"
	"repro/internal/sim"
)

// TestMakePartitionTable checks the structural invariants of the contiguous
// partitioner across representative topologies and shard counts: every node
// and link covered exactly once, every link owned by an endpoint's shard, and
// CrossEdges listing exactly the edges whose endpoints straddle shards.
func TestMakePartitionTable(t *testing.T) {
	specs := []Spec{Chain(16), Star(8), Grid(4, 4), Dragonfly(4, 5)}
	for _, spec := range specs {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/%d-shards", spec.Name, shards), func(t *testing.T) {
				p, err := MakePartition(spec, shards)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Validate(spec); err != nil {
					t.Fatal(err)
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
				// Recompute the cross set independently and compare.
				cross := 0
				for li, e := range spec.sortedEdges() {
					sa, sb := p.NodeShard[e.A], p.NodeShard[e.B]
					if p.LinkShard[li] != sa {
						t.Fatalf("link %d (%d-%d) owned by shard %d, want lower endpoint's shard %d", li, e.A, e.B, p.LinkShard[li], sa)
					}
					if sa != sb {
						cross++
					}
				}
				if len(p.CrossEdges) != cross {
					t.Fatalf("CrossEdges has %d edges, want %d", len(p.CrossEdges), cross)
				}
				if shards == 1 && cross != 0 {
					t.Fatalf("single-shard partition reports %d cross edges", cross)
				}
			})
		}
	}
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
		if len(p.CrossEdges) != shards-1 {
			t.Fatalf("%d shards: chain-16 cut %d edges, want %d", shards, len(p.CrossEdges), shards-1)
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
	if want := m * (m - 1) / 2; len(p.CrossEdges) != want {
		t.Fatalf("cut %d edges, want exactly the %d global links", len(p.CrossEdges), want)
	}
	for _, e := range p.CrossEdges {
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

func TestValidateCrossDelays(t *testing.T) {
	crossing := &Partition{Shards: 2, CrossEdges: []Edge{{0, 1}}}
	if err := crossing.validateCrossDelays(0); err == nil {
		t.Error("zero cross-shard delay accepted")
	}
	if err := crossing.validateCrossDelays(-sim.Microsecond); err == nil {
		t.Error("negative cross-shard delay accepted")
	}
	if err := crossing.validateCrossDelays(sim.Microsecond); err != nil {
		t.Errorf("positive delay rejected: %v", err)
	}
	// With no cross edges the delay never matters.
	internal := &Partition{Shards: 1}
	if err := internal.validateCrossDelays(0); err != nil {
		t.Errorf("delay validated on a partition with no cross edges: %v", err)
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

// TestCrossShardNetworkPort drives the one path that actually crosses shards:
// network-layer frames between nodes owned by different shards. The frames
// must arrive exactly one node-to-node delay after the send, in order, on the
// destination node's shard.
func TestCrossShardNetworkPort(t *testing.T) {
	cfg := DefaultConfig(Chain(4), nv.ScenarioLab)
	cfg.Seed = 3
	cfg.Shards = 2 // cut between nodes 1 and 2
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := nw.Sharded()
	if eng == nil {
		t.Fatal("sharded config built a serial network")
	}
	part := nw.Partition()
	if part.NodeShard[1] == part.NodeShard[2] {
		t.Fatalf("nodes 1 and 2 share shard %d; the test needs the 1-2 edge cut", part.NodeShard[1])
	}

	port, ok := nw.NetworkPort(1, 2)
	if !ok {
		t.Fatal("nodes 1 and 2 are adjacent but have no network port")
	}
	back, ok := nw.NetworkPort(2, 1)
	if !ok {
		t.Fatal("missing reverse port")
	}
	delay := nw.Platform.CommDelayAH + nw.Platform.CommDelayBH
	if port.Delay() != delay {
		t.Fatalf("cross-shard port delay %v, want node-to-node delay %v", port.Delay(), delay)
	}

	type arrival struct {
		at      sim.Time
		latency sim.Duration
		payload any
	}
	var got2, got1 []arrival
	nw.RegisterNetworkHandler(2, func(m classical.Message) {
		got2 = append(got2, arrival{eng.Shard(part.NodeShard[2]).Now(), eng.Shard(part.NodeShard[2]).Now().Sub(m.SentAt), m.Payload})
		back.Send(fmt.Sprintf("echo-%v", m.Payload))
	})
	nw.RegisterNetworkHandler(1, func(m classical.Message) {
		got1 = append(got1, arrival{eng.Shard(part.NodeShard[1]).Now(), eng.Shard(part.NodeShard[1]).Now().Sub(m.SentAt), m.Payload})
	})

	// Sends must run on the source node's shard loop.
	src := eng.Shard(part.NodeShard[1])
	for i := 0; i < 3; i++ {
		i := i
		sim.Schedule(src, sim.Duration(i)*sim.Millisecond, func() { port.Send(i) })
	}
	nw.Run(sim.DurationSeconds(0.05))

	if len(got2) != 3 || len(got1) != 3 {
		t.Fatalf("delivered %d forward and %d echo frames, want 3 and 3", len(got2), len(got1))
	}
	for i, a := range got2 {
		if a.payload != i {
			t.Errorf("forward frame %d carries %v", i, a.payload)
		}
		want := sim.Time(sim.Duration(i)*sim.Millisecond + delay)
		if a.at != want {
			t.Errorf("forward frame %d at %v, want %v", i, a.at, want)
		}
		if a.latency != delay {
			t.Errorf("forward frame %d measured latency %v, want %v (SentAt must survive the shard hop)", i, a.latency, delay)
		}
	}
	for i, a := range got1 {
		if a.payload != fmt.Sprintf("echo-%d", i) {
			t.Errorf("echo frame %d carries %v", i, a.payload)
		}
		if a.latency != delay {
			t.Errorf("echo frame %d measured latency %v, want %v", i, a.latency, delay)
		}
	}
	if eng.Merged() == 0 {
		t.Error("no messages crossed the shard barrier; the port did not use the cross channels")
	}
}
