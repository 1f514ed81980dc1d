package faults

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/nv"
	"repro/internal/quantum"
	"repro/internal/sim"
	"repro/internal/workload"
)

func link(a, b int) *netsim.Edge { return &netsim.Edge{A: a, B: b} }
func node(n int) *int            { return &n }

// TestEventValidation tables the plan validator: well-formed events pass,
// every malformed shape is rejected before it can reach a network.
func TestEventValidation(t *testing.T) {
	spec := netsim.Chain(4)
	cases := []struct {
		ev Event
		ok bool
	}{
		{Event{At: 0, State: netsim.LinkDown, Link: link(0, 1)}, true},
		{Event{At: 10 * sim.Millisecond, State: netsim.LinkUp, Node: node(2)}, true},
		// Reversed endpoints normalise to the topology's link.
		{Event{At: 0, State: netsim.LinkDegraded, Link: link(2, 1), Degrade: &netsim.Degrade{ClassicalLoss: 0.1}}, true},
		{Event{At: 0, State: netsim.LinkDegraded, Link: link(0, 1)}, true}, // nil degrade = no-op impairment
		{Event{At: -sim.Millisecond, State: netsim.LinkDown, Link: link(0, 1)}, false},
		{Event{At: 0, State: netsim.LinkDown}, false},                                               // no target
		{Event{At: 0, State: netsim.LinkDown, Link: link(0, 1), Node: node(1)}, false},              // both targets
		{Event{At: 0, State: netsim.LinkDown, Link: link(0, 2)}, false},                             // no such link
		{Event{At: 0, State: netsim.LinkDown, Node: node(9)}, false},                                // node out of range
		{Event{At: 0, State: netsim.LinkDown, Link: link(0, 1), Degrade: &netsim.Degrade{}}, false}, // degrade with down
		{Event{At: 0, State: netsim.LinkUp, Link: link(0, 1), Degrade: &netsim.Degrade{}}, false},   // degrade with up
		{Event{At: 0, State: netsim.LinkDegraded, Link: link(0, 1), Degrade: &netsim.Degrade{ClassicalLoss: 1.5}}, false},
		{Event{At: 0, State: netsim.LinkDegraded, Link: link(0, 1), Degrade: &netsim.Degrade{PairFidelity: 1}}, false},
		{Event{At: 0, State: netsim.LinkDegraded, Link: link(0, 1), Degrade: &netsim.Degrade{RateDivisor: -1}}, false},
		{Event{At: 0, State: netsim.LinkState(7), Link: link(0, 1)}, false}, // unknown state
	}
	for i, c := range cases {
		err := (&Plan{Events: []Event{c.ev}}).Validate(spec)
		if c.ok && err != nil {
			t.Errorf("case %d: valid event rejected: %v", i, err)
		}
		if !c.ok && err == nil {
			t.Errorf("case %d: invalid event accepted", i)
		}
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(spec); err != nil || !nilPlan.Empty() {
		t.Errorf("nil plan must validate as empty, got %v", err)
	}
}

// renderPlan flattens a plan for byte comparison (events hold pointers, so
// struct equality is useless across builds).
func renderPlan(p *Plan) string {
	var b strings.Builder
	for _, ev := range p.Events {
		target := "-"
		if ev.Link != nil {
			target = fmt.Sprintf("%d-%d", ev.Link.A, ev.Link.B)
		}
		if ev.Node != nil {
			target = fmt.Sprintf("n%d", *ev.Node)
		}
		fmt.Fprintf(&b, "%d %v %s\n", ev.At, ev.State, target)
	}
	return b.String()
}

// TestOutagesGenerator checks the seeded outage expansion: pure function of
// its spec, sorted, valid against the topology, bounded by the window and
// duration limits, and sensitive to the seed.
func TestOutagesGenerator(t *testing.T) {
	spec := netsim.Chain(6)
	o := OutageSpec{Seed: 3, Outages: 5, Window: sim.DurationSeconds(1),
		MinDown: 10 * sim.Millisecond, MaxDown: 50 * sim.Millisecond}
	p1, err := Outages(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Outages(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	if renderPlan(p1) != renderPlan(p2) {
		t.Fatalf("same spec produced different plans:\n%s\nvs\n%s", renderPlan(p1), renderPlan(p2))
	}
	if len(p1.Events) != 2*o.Outages {
		t.Fatalf("%d outages expanded to %d events, want %d", o.Outages, len(p1.Events), 2*o.Outages)
	}
	if err := p1.Validate(spec); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
	downs, ups := 0, 0
	limit := o.Window + o.MaxDown
	for i, ev := range p1.Events {
		if i > 0 && ev.At < p1.Events[i-1].At {
			t.Fatalf("events not sorted by time at %d", i)
		}
		if ev.At < 0 || ev.At > limit {
			t.Errorf("event %d at %v outside [0, window+maxdown]", i, ev.At)
		}
		switch ev.State {
		case netsim.LinkDown:
			downs++
		case netsim.LinkUp:
			ups++
		}
	}
	if downs != o.Outages || ups != o.Outages {
		t.Errorf("generated %d downs / %d ups, want %d each", downs, ups, o.Outages)
	}
	reseeded := o
	reseeded.Seed = 4
	p3, err := Outages(spec, reseeded)
	if err != nil {
		t.Fatal(err)
	}
	if renderPlan(p1) == renderPlan(p3) {
		t.Errorf("different seeds produced identical plans (suspicious)")
	}

	// Degenerate and invalid specs.
	if p, err := Outages(spec, OutageSpec{}); err != nil || !p.Empty() {
		t.Errorf("zero outages must expand to an empty plan, got %v", err)
	}
	for _, bad := range []OutageSpec{
		{Outages: 1, Window: 0, MinDown: sim.Millisecond, MaxDown: sim.Millisecond},
		{Outages: 1, Window: sim.Second, MinDown: 0, MaxDown: sim.Millisecond},
		{Outages: 1, Window: sim.Second, MinDown: 2 * sim.Millisecond, MaxDown: sim.Millisecond},
	} {
		if _, err := Outages(spec, bad); err == nil {
			t.Errorf("invalid outage spec %+v accepted", bad)
		}
	}
}

// TestScheduleRejectsForeignPlan: a plan referencing links absent from the
// network it is applied to must fail loudly at Schedule time.
func TestScheduleRejectsForeignPlan(t *testing.T) {
	cfg := netsim.DefaultConfig(netsim.Chain(4), nv.ScenarioLab)
	nw, err := netsim.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := &Plan{Events: []Event{{At: 0, State: netsim.LinkDown, Link: link(0, 3)}}}
	if err := p.Schedule(nw); err == nil {
		t.Fatal("plan with a foreign link scheduled without error")
	}
	var empty *Plan
	if err := empty.Schedule(nw); err != nil {
		t.Fatalf("empty plan must schedule as a no-op, got %v", err)
	}
}

// runFaulted builds one network, installs the plan and runs it at the given
// shard count, returning rendered stats (including the fault ledger) plus
// the deterministic work counters.
func runFaulted(t *testing.T, spec netsim.Spec, plan *Plan, backend quantum.Backend, shards int, seconds float64) (string, uint64, uint64, uint64) {
	t.Helper()
	cfg := netsim.DefaultConfig(spec, nv.ScenarioLab)
	cfg.Seed = 5
	cfg.Backend = backend
	cfg.Shards = shards
	nw, err := netsim.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Schedule(nw); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.AttachWorkload([]workload.ClassSpec{workload.PoissonClass(0.7, 2, 0.64, false)}); err != nil {
		t.Fatal(err)
	}
	nw.Run(sim.DurationSeconds(seconds))
	perLink, agg := nw.Stats()
	var b strings.Builder
	for _, ls := range append(perLink, agg) {
		fmt.Fprintf(&b, "%s %d %d %d %.9f %.9f %.9f %.9f %.9f %d %.9f %.9f\n",
			ls.Link, ls.Requests, ls.Errors, ls.Pairs, ls.OKRate, ls.Fidelity,
			ls.LatencyP50, ls.LatencyP90, ls.LatencyP99,
			ls.Downs, ls.DowntimeSeconds, ls.RecoverySeconds)
	}
	return b.String(), nw.Sim.Executed(), nw.Attempts(), agg.Downs
}

// TestFaultPlanShardParity is the determinism acceptance check of the fault
// injector: a plan mixing a link outage, a node outage and degraded mode
// must produce byte-identical stats and work counters at every shard count,
// on both backends.
func TestFaultPlanShardParity(t *testing.T) {
	if testing.Short() {
		t.Skip("faulted parity sweep in short mode")
	}
	spec := netsim.Chain(8)

	n3 := 3
	plan := &Plan{Events: []Event{
		{At: 30 * sim.Millisecond, State: netsim.LinkDown, Link: link(5, 6)},
		{At: 60 * sim.Millisecond, State: netsim.LinkDown, Node: &n3},
		{At: 90 * sim.Millisecond, State: netsim.LinkUp, Link: link(5, 6)},
		{At: 110 * sim.Millisecond, State: netsim.LinkUp, Node: &n3},
		{At: 120 * sim.Millisecond, State: netsim.LinkDegraded, Link: link(0, 1),
			Degrade: &netsim.Degrade{ClassicalLoss: 0.02, PairFidelity: 0.9, RateDivisor: 3}},
	}}
	if err := plan.Validate(spec); err != nil {
		t.Fatal(err)
	}

	for _, backend := range []quantum.Backend{quantum.BackendDense, quantum.BackendBellDiagonal} {
		backend := backend
		t.Run(backend.String(), func(t *testing.T) {
			t.Parallel()
			refStats, refEvents, refAttempts, refDowns := runFaulted(t, spec, plan, backend, 1, 0.2)
			if refEvents == 0 || refAttempts == 0 {
				t.Fatalf("serial reference did no work: %d events, %d attempts", refEvents, refAttempts)
			}
			// One link outage plus the node outage's two incident links.
			if refDowns != 3 {
				t.Fatalf("plan produced %d outages in the reference run, want 3", refDowns)
			}
			for _, shards := range []int{2, 4} {
				stats, events, attempts, _ := runFaulted(t, spec, plan, backend, shards, 0.2)
				if stats != refStats {
					t.Errorf("%d shards: faulted stats diverge from serial\n--- serial ---\n%s--- %d shards ---\n%s",
						shards, refStats, shards, stats)
				}
				if events != refEvents {
					t.Errorf("%d shards: executed %d events, serial executed %d", shards, events, refEvents)
				}
				if attempts != refAttempts {
					t.Errorf("%d shards: sampled %d attempts, serial sampled %d", shards, attempts, refAttempts)
				}
			}
		})
	}
}
