package netsim_test

import (
	"fmt"
	"testing"

	"repro/internal/egp"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/nv"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// oracleCase is one configuration the shared MHP clock is checked on. setup
// returns the network config and the function that installs the case's
// traffic, faults and services on a built network, which in turn returns the
// function rendering the case's result tables.
type oracleCase struct {
	name    string
	seconds float64
	// serialOnly marks end-to-end cases: the network layer runs on the
	// serial engine only.
	serialOnly bool
	setup      func(t *testing.T) (netsim.Config, func(*netsim.Network, *obs.Tracer) func() string)
}

// specCase runs a committed scenario spec, optionally adjusted.
func specCase(name, file string, seconds float64, adjust func(*scenario.Compiled)) oracleCase {
	return oracleCase{name: name, seconds: seconds, setup: func(t *testing.T) (netsim.Config, func(*netsim.Network, *obs.Tracer) func() string) {
		spec, err := scenario.Load("../../scenarios/" + file)
		if err != nil {
			t.Fatal(err)
		}
		c, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if adjust != nil {
			adjust(c)
		}
		return c.Config, func(nw *netsim.Network, _ *obs.Tracer) func() string {
			mt, err := c.Attach(nw)
			if err != nil {
				t.Fatal(err)
			}
			return func() string {
				perLink, agg := nw.Stats()
				out := fmt.Sprintf("%+v\n%+v\n", perLink, agg)
				if mt != nil {
					out += fmt.Sprintf("%+v\n", mt.SLO(seconds))
				}
				return out
			}
		}
	}}
}

// e2eGridCase is the end-to-end service on a 3x3 Lab grid with held pairs,
// under a node outage, a throttled degrade and a link outage around the
// centre node.
func e2eGridCase() oracleCase {
	edge := func(a, b int) *netsim.Edge { return &netsim.Edge{A: a, B: b} }
	centre := 4
	return oracleCase{name: "e2e-grid9-faults", seconds: 0.5, serialOnly: true, setup: func(t *testing.T) (netsim.Config, func(*netsim.Network, *obs.Tracer) func() string) {
		cfg := netsim.DefaultConfig(netsim.Grid(3, 3), nv.ScenarioLab)
		cfg.Seed = 3
		cfg.HoldPairs = true
		return cfg, func(nw *netsim.Network, tr *obs.Tracer) func() string {
			plan := &faults.Plan{Events: []faults.Event{
				{At: 100 * sim.Millisecond, State: netsim.LinkDown, Node: &centre},
				{At: 150 * sim.Millisecond, State: netsim.LinkUp, Node: &centre},
				{At: 200 * sim.Millisecond, State: netsim.LinkDegraded, Link: edge(4, 5),
					Degrade: &netsim.Degrade{PairFidelity: 0.95, RateDivisor: 2}},
				{At: 300 * sim.Millisecond, State: netsim.LinkUp, Link: edge(4, 5)},
				{At: 350 * sim.Millisecond, State: netsim.LinkDown, Link: edge(1, 4)},
				{At: 400 * sim.Millisecond, State: netsim.LinkUp, Link: edge(1, 4)},
			}}
			if err := plan.Schedule(nw); err != nil {
				t.Fatal(err)
			}
			svcCfg := network.DefaultConfig()
			svcCfg.Trace = tr
			svc, err := network.NewService(nw, svcCfg)
			if err != nil {
				t.Fatal(err)
			}
			class := workload.ClassSpec{
				Name:        "e2e",
				Priority:    egp.PriorityNL,
				Arrival:     workload.Arrival{Kind: workload.ArrivalPoisson, Load: 0.5},
				MinPairs:    1,
				MaxPairs:    1,
				MinFidelity: 0.35,
			}
			if _, err := svc.AttachWorkload([]workload.ClassSpec{class}, [][2]int{{0, 8}, {2, 6}, {1, 7}}); err != nil {
				t.Fatal(err)
			}
			return func() string {
				svc.FinishAt(nw.Sim.Now())
				perPath, agg := svc.Stats()
				perLink, linkAgg := nw.Stats()
				return fmt.Sprintf("%+v\n%+v\n%+v\n%+v\n", perPath, agg, perLink, linkAgg)
			}
		}
	}}
}

// oracleCases are the configurations of TestSharedClockMatchesPerNodeClocks:
// CK/MD/NL traffic; outages and a rate-divided degrade; classical loss (the
// DQP retransmit, EXPIRE and lost-REPLY paths); QL2020 (a K stride of 16 and
// asymmetric arms); and the end-to-end service under faults.
func oracleCases() []oracleCase {
	return []oracleCase{
		specCase("chain8-mixed", "chain8-mixed.json", 0.2, nil),
		specCase("chain8-outage", "chain8-outage.json", 0.5, nil),
		specCase("chain8-lossy", "chain8-mixed.json", 0.2, func(c *scenario.Compiled) { c.Config.ClassicalLossProb = 0.001 }),
		specCase("chain8-ql2020", "chain8-mixed.json", 0.4, func(c *scenario.Compiled) {
			// QL2020 cannot meet the spec's keep floors or deadlines; relax
			// them so its K attempts (every 16th cycle) are served.
			c.Config.Scenario = nv.ScenarioQL2020
			for i := range c.Classes {
				c.Classes[i].Deadline = 0
				if c.Classes[i].Keep() {
					c.Classes[i].MinFidelity = 0.5
				}
			}
		}),
		e2eGridCase(),
	}
}

// oracleRing is the per-ring trace capacity; oracleStep is how often the two
// runs' trace streams are compared. A step must write fewer records per ring
// than the capacity, which fresh checks.
const (
	oracleRing = 1 << 14
	oracleStep = 5 * sim.Millisecond
)

// oracleRun is one traced network of a comparison.
type oracleRun struct {
	nw     *netsim.Network
	tables func() string
	// rings are the protocol-layer trace rings, shard by shard; seen counts
	// the records of each already compared.
	rings []*obs.Ring
	seen  []uint64
	buf   []obs.Record
}

func newOracleRun(t *testing.T, tc oracleCase, shards int, perNode bool) *oracleRun {
	t.Helper()
	cfg, attach := tc.setup(t)
	cfg.Shards = shards
	tracer := obs.NewTracer(shards, oracleRing)
	cfg.Trace = tracer
	build := netsim.NewNetwork
	if perNode {
		build = netsim.NewNetworkPerNodeClocks
	}
	nw, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &oracleRun{nw: nw}
	for s := 0; s < shards; s++ {
		for _, layer := range []obs.Layer{obs.LayerMHP, obs.LayerEGP, obs.LayerNetsim, obs.LayerNetwork} {
			r.rings = append(r.rings, tracer.Ring(s, layer))
		}
	}
	r.seen = make([]uint64, len(r.rings))
	r.tables = attach(nw, tracer)
	nw.Start()
	return r
}

// fresh returns the records ring i gained since the previous call, failing
// when the ring overwrote some of them first. The slice is valid until the
// next call.
func (r *oracleRun) fresh(t *testing.T, i int) []obs.Record {
	t.Helper()
	ring := r.rings[i]
	if ring.Dropped() > r.seen[i] {
		t.Fatalf("ring %d wrapped within one step; shorten oracleStep", i)
	}
	written := uint64(ring.Len()) + ring.Dropped()
	r.buf = ring.Records(r.buf[:0])
	out := r.buf[len(r.buf)-int(written-r.seen[i]):]
	r.seen[i] = written
	return out
}

// TestSharedClockMatchesPerNodeClocks is the shared clock's oracle: against
// the same network with every MHP node on a clock of its own that never
// parks, the MHP, EGP, netsim and network trace streams (ring by ring), the
// result tables, the attempt count and the event count must be identical —
// on both engines.
func TestSharedClockMatchesPerNodeClocks(t *testing.T) {
	for _, tc := range oracleCases() {
		for _, shards := range []int{1, 2} {
			if tc.serialOnly && shards > 1 {
				continue
			}
			// The last name level is the event queue every engine runs on.
			t.Run(fmt.Sprintf("%s/shards=%d/wheel", tc.name, shards), func(t *testing.T) {
				t.Parallel()
				shared := newOracleRun(t, tc, shards, false)
				ref := newOracleRun(t, tc, shards, true)
				end := sim.Time(sim.DurationSeconds(tc.seconds))
				records, keepAttempts := 0, 0
				for at := sim.Time(0); at < end; {
					at = at.Add(oracleStep)
					if at > end {
						at = end
					}
					_ = shared.nw.Sim.RunUntil(at)
					_ = ref.nw.Sim.RunUntil(at)
					for i := range ref.rings {
						got, want := shared.fresh(t, i), ref.fresh(t, i)
						if len(got) != len(want) {
							t.Fatalf("by %v: ring %d gained %d records, per-node clocks' %d", at, i, len(got), len(want))
						}
						for j, rec := range want {
							if got[j] != rec {
								t.Fatalf("by %v: ring %d diverges\nshared:   %+v\nper-node: %+v", at, i, got[j], rec)
							}
							if rec.Kind == obs.KindMHPAttempt && rec.B == 1 {
								keepAttempts++
							}
						}
						records += len(want)
					}
				}
				shared.nw.Run(0)
				ref.nw.Run(0)
				// Every case serves create-and-keep requests, so both the K
				// and the M attempt paths are compared.
				if keepAttempts == 0 || ref.nw.Attempts() == 0 {
					t.Fatalf("reference run did too little: %d records, %d K attempts, %d attempts", records, keepAttempts, ref.nw.Attempts())
				}
				if got, want := shared.tables(), ref.tables(); got != want {
					t.Errorf("tables diverge\n--- shared ---\n%s--- per-node ---\n%s", got, want)
				}
				if got, want := shared.nw.Attempts(), ref.nw.Attempts(); got != want {
					t.Errorf("%d attempts, per-node clocks made %d", got, want)
				}
				// Both count one clock tick per cycle, and the link sends
				// both GENs of a cycle whichever clock polls its nodes: every
				// other event must match too.
				if got, want := shared.nw.Sim.Executed(), ref.nw.Sim.Executed(); got != want {
					t.Errorf("%d events, per-node clocks fired %d", got, want)
				}
				if shared.nw.Polls() >= ref.nw.Polls() {
					t.Errorf("the shared clock polled %d times, per-node clocks %d: nothing parked", shared.nw.Polls(), ref.nw.Polls())
				}
				t.Logf("%d trace records compared, %d K attempts; %d polls against %d per-node polls",
					records, keepAttempts, shared.nw.Polls(), ref.nw.Polls())
			})
		}
	}
}
