package netsim

import (
	"math"
	"testing"

	"repro/internal/egp"
	"repro/internal/nv"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestDownLinkRejectsSubmit pins the fail-fast edge of the admin state
// machine: a down link rejects new CREATEs synchronously with LINKDOWN (not
// TIMEOUT, and without touching the paused stack), and accepts again the
// moment it is repaired.
func TestDownLinkRejectsSubmit(t *testing.T) {
	cfg := DefaultConfig(Chain(3), nv.ScenarioLab)
	cfg.Seed = 5
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := nw.Links[0]
	req := egp.CreateRequest{NumPairs: 1, MinFidelity: 0.64, Priority: egp.PriorityMD}

	nw.SetLinkState(l, LinkDown, nil)
	if _, code := nw.Submit(l, "A", req); code != wire.ErrLinkDown {
		t.Fatalf("Submit on a down link returned %v, want LINKDOWN", code)
	}
	if l.State() != LinkDown || l.Downs != 1 {
		t.Fatalf("down transition not recorded: state %v, downs %d", l.State(), l.Downs)
	}
	// Redundant transitions to the same state are no-ops, not extra outages.
	nw.SetLinkState(l, LinkDown, nil)
	if l.Downs != 1 {
		t.Fatalf("repeated down transition double-counted: downs %d", l.Downs)
	}

	nw.SetLinkState(l, LinkUp, nil)
	if _, code := nw.Submit(l, "A", req); code != wire.ErrNone {
		t.Fatalf("Submit on a repaired link returned %v, want OK", code)
	}
	// The healthy link never saw a transition.
	if nw.Links[1].Downs != 0 || nw.Links[1].State() != LinkUp {
		t.Fatalf("outage leaked onto healthy link: %+v", nw.Links[1].Stats())
	}
}

// TestOutageLifecycleStats drives a scheduled down/up cycle under traffic and
// checks the whole robustness ledger: queued work drains as errors while
// down, exactly the outage interval is accounted as downtime, service
// resumes after repair and the time-to-recover interval closes on the first
// delivered pair.
func TestOutageLifecycleStats(t *testing.T) {
	if testing.Short() {
		t.Skip("traffic-driven outage experiment in short mode")
	}
	cfg := DefaultConfig(Chain(3), nv.ScenarioLab)
	cfg.Seed = 7
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Overload the links so the distributed queues are certainly non-empty
	// when the outage hits, exercising the LINKDOWN drain.
	attachPoisson(t, nw, workload.PoissonClass(3, 2, 0.64, false))
	l := nw.Links[0]
	nw.ScheduleLinkState(l, sim.Time(0).Add(50*sim.Millisecond), LinkDown, nil)
	nw.ScheduleLinkState(l, sim.Time(0).Add(150*sim.Millisecond), LinkUp, nil)
	nw.Run(sim.DurationSeconds(1))

	perLink, agg := nw.Stats()
	row := perLink[0]
	if row.Downs != 1 {
		t.Errorf("downs %d, want 1", row.Downs)
	}
	if math.Abs(row.DowntimeSeconds-0.1) > 1e-9 {
		t.Errorf("downtime %.6fs, want exactly the 0.1s outage interval", row.DowntimeSeconds)
	}
	if row.Errors == 0 {
		t.Errorf("outage drained no queued requests as errors")
	}
	if row.Pairs == 0 {
		t.Errorf("link delivered nothing despite 0.9s of healthy time")
	}
	if row.RecoverySeconds <= 0 {
		t.Errorf("time-to-recover interval never closed after repair")
	}
	if healthy := perLink[1]; healthy.Downs != 0 || healthy.DowntimeSeconds != 0 {
		t.Errorf("healthy link accrued fault stats: %+v", healthy)
	}
	if agg.Downs != 1 || math.Abs(agg.DowntimeSeconds-0.1) > 1e-9 {
		t.Errorf("aggregate fault ledger wrong: downs %d downtime %.6f", agg.Downs, agg.DowntimeSeconds)
	}
}

// TestDegradedModeLowersFidelity checks the Degraded admin state's pair
// impairment: with a depolarising floor installed on one link, its delivered
// fidelity must sit measurably below an identically loaded healthy link, and
// restoring Up must remove the impairment (no sticky degradation).
func TestDegradedModeLowersFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("traffic-driven degradation experiment in short mode")
	}
	run := func(degrade *Degrade) []LinkStats {
		cfg := DefaultConfig(Chain(3), nv.ScenarioLab)
		cfg.Seed = 11
		nw, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if degrade != nil {
			nw.SetLinkState(nw.Links[0], LinkDegraded, degrade)
		}
		attachPoisson(t, nw, workload.PoissonClass(0.8, 2, 0.3, false))
		nw.Run(sim.DurationSeconds(0.6))
		perLink, _ := nw.Stats()
		return perLink
	}
	degraded := run(&Degrade{PairFidelity: 0.7})
	if degraded[0].Pairs == 0 || degraded[1].Pairs == 0 {
		t.Fatalf("degraded run delivered nothing: %+v", degraded)
	}
	if degraded[0].Fidelity >= degraded[1].Fidelity-0.02 {
		t.Errorf("degraded link fidelity %.4f not below healthy link %.4f",
			degraded[0].Fidelity, degraded[1].Fidelity)
	}
	// Degraded is not Down: no outage accounting.
	if degraded[0].Downs != 0 || degraded[0].DowntimeSeconds != 0 {
		t.Errorf("degraded mode counted as an outage: %+v", degraded[0])
	}

	// A degrade/restore round trip before the run leaves no residue: the
	// restored network reproduces the never-touched baseline byte for byte.
	baseline := run(nil)
	restored := func() []LinkStats {
		cfg := DefaultConfig(Chain(3), nv.ScenarioLab)
		cfg.Seed = 11
		nw, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nw.SetLinkState(nw.Links[0], LinkDegraded, &Degrade{ClassicalLoss: 0.2, PairFidelity: 0.7, RateDivisor: 4})
		nw.SetLinkState(nw.Links[0], LinkUp, nil)
		attachPoisson(t, nw, workload.PoissonClass(0.8, 2, 0.3, false))
		nw.Run(sim.DurationSeconds(0.6))
		perLink, _ := nw.Stats()
		return perLink
	}()
	if render(baseline, LinkStats{}) != render(restored, LinkStats{}) {
		t.Errorf("degrade/restore round trip left residue:\n--- baseline ---\n%s--- restored ---\n%s",
			render(baseline, LinkStats{}), render(restored, LinkStats{}))
	}
}
