package netsim_test

import (
	"math"
	"testing"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestLinkDeliversSteadilyFor200Seconds runs linkSatClass's Lab link for 200
// sim-s at the spec's seed. Each side's 8-bit CSEQ wraps many times over, so
// a DQP that mistakes a new ADD for a retransmission of one 256 back leaves
// the two EGPs with different queues, and the link then delivers far fewer
// pairs. The pairs of the last 50 sim-s (egp.oks counts each at both ends)
// must lie within three standard deviations of the first 50 sim-s' count,
// taken as a binomial count of successes in that window's attempts.
func TestLinkDeliversSteadilyFor200Seconds(t *testing.T) {
	spec, err := scenario.Parse([]byte(labSpec("", linkSatClass, "")), "steady")
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.Config.Metrics = reg
	nw, err := netsim.NewNetwork(c.Config)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Attach(nw); err != nil {
		t.Fatal(err)
	}
	// oks and attempts are cumulative at the end of each 50 sim-s window.
	var oks, attempts [4]uint64
	for w := range oks {
		nw.Run(50 * sim.Second)
		oks[w], attempts[w] = reg.Snapshot(nw.Sim.Now()).Counters["egp.oks"], nw.Attempts()
	}
	pairs := func(w int) uint64 {
		if w == 0 {
			return oks[0] / 2
		}
		return (oks[w] - oks[w-1]) / 2
	}
	first, last := float64(pairs(0)), float64(pairs(3))
	p := first / float64(attempts[0])
	if sd := math.Sqrt(first * (1 - p)); first == 0 || math.Abs(last-first) > 3*sd {
		t.Fatalf("pairs per 50 sim-s window %d, %d, %d, %d: the last is not within 3 × %.1f of the first",
			pairs(0), pairs(1), pairs(2), pairs(3), sd)
	}
	t.Logf("pairs per 50 sim-s window %d, %d, %d, %d", pairs(0), pairs(1), pairs(2), pairs(3))
}
