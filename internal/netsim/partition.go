package netsim

import "fmt"

// Partition assigns every node and every link of a topology to one shard of
// a sim.ShardedEngine.
//
// Nodes are split into contiguous index blocks (node indices are laid out
// locality-first by the topology constructors: chains in path order, grids
// row-major, dragonflies group-major, so contiguous blocks cut few edges).
// Every link is owned by exactly one shard — the shard of its lower-index
// endpoint — and its entire protocol stack (both EGP endpoints, the link's
// MHP with its nodes, fibres and station, registry and devices) lives
// there. A link is never split across shards: its two endpoints share a
// pair registry and pair state, which only stays deterministic when one
// event loop drives both. Shards therefore never exchange events: an edge
// whose endpoints land in different shards carries only its link's own
// traffic, on the link's shard.
type Partition struct {
	// Shards is the shard count the partition was built for.
	Shards int
	// NodeShard maps node index to owning shard.
	NodeShard []int
	// LinkShard maps link ID (the index into the sorted edge list) to the
	// shard owning the link's whole protocol stack.
	LinkShard []int
}

// MakePartition splits the topology into the given number of contiguous
// node blocks. It fails when there are more shards than nodes (an empty
// shard would silently skew any scaling measurement).
func MakePartition(spec Spec, shards int) (*Partition, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if shards < 1 {
		return nil, fmt.Errorf("netsim: partition needs at least 1 shard, got %d", shards)
	}
	if shards > spec.Nodes {
		return nil, fmt.Errorf("netsim: %d shards for %d nodes would leave empty shards", shards, spec.Nodes)
	}
	p := &Partition{
		Shards:    shards,
		NodeShard: make([]int, spec.Nodes),
	}
	for i := 0; i < spec.Nodes; i++ {
		// Balanced contiguous blocks: shard s owns nodes [s·N/S, (s+1)·N/S).
		p.NodeShard[i] = i * shards / spec.Nodes
	}
	for _, e := range spec.sortedEdges() {
		p.LinkShard = append(p.LinkShard, p.NodeShard[e.A])
	}
	return p, nil
}
