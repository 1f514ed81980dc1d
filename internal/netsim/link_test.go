package netsim

import (
	"math"
	"testing"

	"repro/internal/egp"
	"repro/internal/nv"
	"repro/internal/sim"
	"repro/internal/wire"
)

// The paper's link — A, the heralding station, B — is a Chain(2) network.
// These tests drive its CREATE interface by hand.

// twoNode is a Chain(2) network that records every OK and error of its one
// link.
type twoNode struct {
	*Network
	link *Link
	oks  []egp.OKEvent
	errs []egp.ErrorEvent
}

func newTwoNode(t *testing.T, cfg Config) *twoNode {
	t.Helper()
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := &twoNode{Network: nw, link: nw.Links[0]}
	nw.OnLinkOK = func(_ *Link, ev egp.OKEvent) { n.oks = append(n.oks, ev) }
	nw.OnLinkError = func(_ *Link, ev egp.ErrorEvent) { n.errs = append(n.errs, ev) }
	return n
}

// labLink returns a two-node Lab network with the given seed.
func labLink(t *testing.T, seed int64) *twoNode {
	t.Helper()
	cfg := DefaultConfig(Chain(2), nv.ScenarioLab)
	cfg.Seed = seed
	return newTwoNode(t, cfg)
}

// submitAt schedules a request from the given role at a simulated time.
func (n *twoNode) submitAt(at sim.Duration, role string, req egp.CreateRequest) {
	sim.Schedule(n.Sim, at, func() { n.Submit(n.link, role, req) })
}

func TestLabMeasureDirectlyDeliversPairs(t *testing.T) {
	n := labLink(t, 7)
	n.submitAt(0, roleA, egp.CreateRequest{
		NumPairs:    5,
		Keep:        false,
		MinFidelity: 0.6,
		Priority:    egp.PriorityMD,
		PurposeID:   1,
	})
	n.Run(3 * sim.Second)

	c := n.link.Collector
	if len(n.oks) == 0 {
		t.Fatal("no OKs delivered for an MD request in 3 s of Lab time")
	}
	// The origin node should have recorded 5 delivered pairs and completed
	// the request.
	if got := c.OKCount(egp.PriorityMD); got != 5 {
		t.Fatalf("expected 5 MD pairs at the origin, got %d", got)
	}
	if c.RequestLatency(egp.PriorityMD).Count() != 1 {
		t.Fatal("request should have completed")
	}
	if c.OutstandingRequests() != 0 {
		t.Fatal("no requests should remain outstanding")
	}
	// Both nodes deliver OKs (the peer also passes entanglement upwards).
	var fromA, fromB int
	for _, ok := range n.oks {
		if ok.Node == roleA {
			fromA++
		} else {
			fromB++
		}
		if ok.Keep {
			t.Fatal("MD request should produce measure OKs")
		}
		if ok.MeasureOutcome != 0 && ok.MeasureOutcome != 1 {
			t.Fatalf("invalid measurement outcome %d", ok.MeasureOutcome)
		}
	}
	if fromA == 0 || fromB == 0 {
		t.Fatalf("both nodes should issue OKs, got A=%d B=%d", fromA, fromB)
	}
}

func TestLabKeepDeliversEntangledPairs(t *testing.T) {
	n := labLink(t, 11)
	n.submitAt(0, roleA, egp.CreateRequest{
		NumPairs:    3,
		Keep:        true,
		MinFidelity: 0.6,
		Priority:    egp.PriorityCK,
		PurposeID:   2,
	})
	n.Run(4 * sim.Second)

	c := n.link.Collector
	if got := c.OKCount(egp.PriorityCK); got != 3 {
		t.Fatalf("expected 3 CK pairs, got %d", got)
	}
	fid := c.Fidelity(egp.PriorityCK)
	if fid.Count() != 3 {
		t.Fatalf("expected 3 fidelity samples, got %d", fid.Count())
	}
	if fid.Mean() < 0.6 {
		t.Fatalf("mean delivered fidelity %v below the requested minimum", fid.Mean())
	}
	if fid.Mean() > 0.95 {
		t.Fatalf("mean delivered fidelity %v implausibly high for this hardware", fid.Mean())
	}
	// K pairs report where the qubit was stored.
	sawMemory := false
	for _, ok := range n.oks {
		if ok.Keep && ok.LogicalQubit != nv.CommQubitID {
			sawMemory = true
		}
	}
	if !sawMemory {
		t.Fatal("expected at least one pair moved to a memory qubit")
	}
}

func TestRequestFromSlaveNode(t *testing.T) {
	n := labLink(t, 13)
	n.submitAt(0, roleB, egp.CreateRequest{
		NumPairs:    2,
		Keep:        false,
		MinFidelity: 0.6,
		Priority:    egp.PriorityMD,
	})
	n.Run(3 * sim.Second)
	c := n.link.Collector
	if got := c.OKCount(egp.PriorityMD); got != 2 {
		t.Fatalf("expected 2 pairs for a slave-originated request, got %d", got)
	}
	// The origin-side metrics must be attributed to B's node, n1.
	if c.PairsByOrigin()["n1"] != 2 {
		t.Fatalf("pairs should be attributed to origin n1: %v", c.PairsByOrigin())
	}
}

func TestUnsupportedFidelityRejected(t *testing.T) {
	n := labLink(t, 1)
	n.Start()
	_, code := n.Submit(n.link, roleA, egp.CreateRequest{
		NumPairs:    1,
		Keep:        true,
		MinFidelity: 0.99, // unreachable on this hardware
		Priority:    egp.PriorityCK,
	})
	if code != wire.ErrUnsupported {
		t.Fatalf("expected UNSUPP, got %v", code)
	}
	if len(n.errs) != 1 || n.errs[0].Code != wire.ErrUnsupported {
		t.Fatalf("expected an UNSUPP error event, got %+v", n.errs)
	}
	if n.link.Submitted != 0 {
		t.Fatal("a rejected request must not count as submitted")
	}
}

func TestUnsupportedTimeRejected(t *testing.T) {
	n := labLink(t, 1)
	n.Start()
	_, code := n.Submit(n.link, roleA, egp.CreateRequest{
		NumPairs:    100,
		Keep:        true,
		MinFidelity: 0.6,
		MaxTime:     1 * sim.Millisecond, // impossible deadline
		Priority:    egp.PriorityCK,
	})
	if code != wire.ErrUnsupported {
		t.Fatalf("expected UNSUPP for impossible deadline, got %v", code)
	}
}

func TestAtomicMemoryExceeded(t *testing.T) {
	n := labLink(t, 1)
	n.Start()
	_, code := n.Submit(n.link, roleA, egp.CreateRequest{
		NumPairs:    10, // far more than 1 comm + 1 memory qubit
		Keep:        true,
		Atomic:      true,
		MinFidelity: 0.6,
		Priority:    egp.PriorityCK,
	})
	if code != wire.ErrMemExceeded {
		t.Fatalf("expected MEMEXCEEDED, got %v", code)
	}
}

func TestRequestTimeout(t *testing.T) {
	n := labLink(t, 17)
	// Many pairs with a deadline that passes the FEU feasibility estimate:
	// the request must either complete or end in TIMEOUT.
	n.submitAt(0, roleA, egp.CreateRequest{
		NumPairs:    30,
		Keep:        false,
		MinFidelity: 0.6,
		MaxTime:     4 * sim.Second,
		Priority:    egp.PriorityMD,
	})
	n.Run(6 * sim.Second)
	c := n.link.Collector
	timedOut := c.ErrorCount("TIMEOUT")
	completed := c.RequestLatency(egp.PriorityMD).Count()
	if timedOut+completed == 0 {
		t.Fatal("request should either complete or time out")
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	run := func(seed int64) (int, float64) {
		n := labLink(t, seed)
		n.submitAt(0, roleA, egp.CreateRequest{NumPairs: 3, MinFidelity: 0.6, Priority: egp.PriorityMD})
		n.Run(2 * sim.Second)
		return len(n.oks), n.link.Collector.Fidelity(egp.PriorityMD).Mean()
	}
	oks1, f1 := run(99)
	oks2, f2 := run(99)
	if oks1 != oks2 || math.Abs(f1-f2) > 1e-12 {
		t.Fatalf("same seed should reproduce identical runs: %d/%v vs %d/%v", oks1, f1, oks2, f2)
	}
}

func TestQL2020KeepThroughputLowerThanLab(t *testing.T) {
	// Section 6.2: QL2020 K-type throughput is roughly an order of magnitude
	// below Lab because every attempt must wait for the midpoint reply.
	run := func(scenario nv.ScenarioID) float64 {
		cfg := DefaultConfig(Chain(2), scenario)
		cfg.Seed = 31
		n := newTwoNode(t, cfg)
		n.submitAt(0, roleA, egp.CreateRequest{
			NumPairs:    200,
			Keep:        true,
			MinFidelity: 0.6,
			Priority:    egp.PriorityCK,
		})
		n.Run(5 * sim.Second)
		return n.link.Collector.Throughput(egp.PriorityCK)
	}
	lab := run(nv.ScenarioLab)
	ql := run(nv.ScenarioQL2020)
	if lab <= 0 {
		t.Fatal("Lab K throughput should be positive")
	}
	if ql <= 0 {
		t.Fatal("QL2020 K throughput should be positive")
	}
	if lab < 3*ql {
		t.Fatalf("Lab K throughput (%v) should be well above QL2020 (%v)", lab, ql)
	}
}

func TestRobustnessToClassicalLoss(t *testing.T) {
	// Section 6.1: inflated classical losses must not break the protocol;
	// pairs keep being delivered.
	cfg := DefaultConfig(Chain(2), nv.ScenarioLab)
	cfg.Seed = 37
	cfg.ClassicalLossProb = 1e-3 // even harsher than the paper's 1e-4
	n := newTwoNode(t, cfg)
	n.submitAt(0, roleA, egp.CreateRequest{
		NumPairs:    10,
		Keep:        false,
		MinFidelity: 0.6,
		Priority:    egp.PriorityMD,
	})
	n.Run(5 * sim.Second)
	if n.link.Collector.OKCount(egp.PriorityMD) == 0 {
		t.Fatal("protocol should still deliver pairs under inflated classical loss")
	}
}

func TestStopHaltsGeneration(t *testing.T) {
	n := labLink(t, 1)
	n.Start()
	n.Stop()
	n.Submit(n.link, roleA, egp.CreateRequest{NumPairs: 1, MinFidelity: 0.6, Priority: egp.PriorityMD})
	_ = n.Sim.RunFor(200 * sim.Millisecond)
	if len(n.oks) != 0 {
		t.Fatal("no pairs should be generated after Stop")
	}
}
