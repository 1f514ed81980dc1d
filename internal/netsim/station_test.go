package netsim_test

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestStationCountersRegistered runs chain8-mixed for 2 sim-s loss-free and
// at the paper's classical loss of 0.001 with a metrics registry: the
// station's disagreement counters must appear in the snapshot, equal to the
// links' own counts. Loss-free, the two EGPs of a link never attempt
// different queue items; lossy, a lost frame leaves one side attempting
// alone, which the station answers with TIME_MISMATCH.
func TestStationCountersRegistered(t *testing.T) {
	for _, loss := range []float64{0, 0.001} {
		spec, err := scenario.Load("../../scenarios/chain8-mixed.json")
		if err != nil {
			t.Fatal(err)
		}
		c, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		c.Config.ClassicalLossProb = loss
		reg := obs.NewRegistry()
		c.Config.Metrics = reg
		nw, err := netsim.NewNetwork(c.Config)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Attach(nw); err != nil {
			t.Fatal(err)
		}
		nw.Run(sim.DurationSeconds(2))
		var want [3]uint64
		for _, l := range nw.Links {
			_, _, timeMismatch, queueMismatch, noOther := l.Mid.Stats()
			want[0] += queueMismatch
			want[1] += noOther
			want[2] += timeMismatch
		}
		got := reg.Snapshot(nw.Sim.Now()).Counters
		for i, name := range []string{"mhp.queue_mismatches", "mhp.no_message_other", "mhp.time_mismatches"} {
			if v, ok := got[name]; !ok || v != want[i] {
				t.Errorf("loss %g: %s = %d (registered %v), the links count %d", loss, name, v, ok, want[i])
			}
		}
		if loss == 0 && got["mhp.queue_mismatches"] != 0 {
			t.Errorf("loss-free: %d queue mismatches", got["mhp.queue_mismatches"])
		}
		if loss > 0 && got["mhp.time_mismatches"] == 0 {
			t.Errorf("loss %g: no TIME_MISMATCH counted", loss)
		}
		t.Logf("loss %g: %v", loss, got)
	}
}
