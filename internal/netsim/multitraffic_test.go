package netsim

import (
	"reflect"
	"testing"

	"repro/internal/egp"
	"repro/internal/nv"
	"repro/internal/sim"
	"repro/internal/workload"
)

// mixedClasses is the reference multi-class workload of these tests: an
// open-loop MD class, a population-driven NL class and a closed-loop CK
// session pool.
func mixedClasses() []workload.ClassSpec {
	return []workload.ClassSpec{
		{
			Name:     "md",
			Priority: egp.PriorityMD,
			Arrival:  workload.Arrival{Kind: workload.ArrivalPoisson, Load: 0.45},
			MinPairs: 1, MaxPairs: 2,
			MinFidelity: 0.64,
			Deadline:    sim.DurationSeconds(0.5),
			Origin:      workload.OriginRandom,
		},
		{
			Name:     "nl",
			Priority: egp.PriorityNL,
			Arrival:  workload.Arrival{Kind: workload.ArrivalPoisson, Users: 2000000, PerUserRate: 0.000004},
			MinPairs: 1, MaxPairs: 1,
			MinFidelity: 0.7,
			Deadline:    sim.DurationSeconds(0.25),
			Origin:      workload.OriginA,
		},
		{
			Name:     "ck",
			Priority: egp.PriorityCK,
			Arrival:  workload.Arrival{Kind: workload.ArrivalClosed, Sessions: 12, ThinkTime: sim.DurationSeconds(0.3)},
			MinPairs: 1, MaxPairs: 1,
			MinFidelity: 0.66,
			Deadline:    sim.DurationSeconds(1),
		},
	}
}

// runMixed builds a chain network, attaches the mixed workload and runs it.
func runMixed(t *testing.T, shards int, seconds float64) (*Network, *MultiTraffic) {
	t.Helper()
	cfg := DefaultConfig(Chain(8), nv.ScenarioLab)
	cfg.Seed = 7
	cfg.Shards = shards
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mt, err := nw.AttachWorkload(mixedClasses())
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(sim.DurationSeconds(seconds))
	return nw, mt
}

// attachPoisson installs a one-class workload on the network.
func attachPoisson(t testing.TB, nw *Network, class workload.ClassSpec) *MultiTraffic {
	t.Helper()
	mt, err := nw.AttachWorkload([]workload.ClassSpec{class})
	if err != nil {
		t.Fatal(err)
	}
	return mt
}

// TestPoissonClassMatchesRecordedRuns pins the one-class Poisson workload to
// the numbers the flag-era single-class generator produced on the same
// networks before MultiTraffic replaced it: events, attempts and the
// aggregate request, pair and error totals. The events are re-pinned to a
// loss-free Lab attempt's two events beside the clock tick (one delivers
// both GENs, one both REPLYs), then the MD case's to its links folding
// their failed attempts (mhp.Clock), then both to Executed counting no
// clock tick, then the CK case's to its lossy links folding theirs too. The
// dense and belldiag backends
// agree on every pinned field. The MD case is the flag runs' shape; the CK
// case adds create-and-keep, a deadline and classical loss. The QL2020
// cases, recorded later, pin the unequal arms, where no attempt folds and
// every GEN, REPLY and hold expiry of an attempt comes at its own instant,
// with frames of both kinds lost. A change to the engine's draw order
// (pairs, then origin) or its request fields breaks it.
func TestPoissonClassMatchesRecordedRuns(t *testing.T) {
	ck := workload.PoissonClass(0.8, 3, 0.64, true)
	ck.Deadline = sim.DurationSeconds(0.4)
	// QL2020's K attempts are slower: a 0.4 s deadline at F 0.64 refuses
	// every request.
	qlCK := workload.PoissonClass(0.8, 1, 0.5, true)
	qlCK.Deadline = sim.DurationSeconds(1)
	cases := []struct {
		name     string
		spec     Spec
		scenario nv.ScenarioID
		seed     int64
		loss     float64
		class    workload.ClassSpec
		seconds  float64
		events   uint64
		attempts uint64
		requests uint64
		pairs    int
		errors   uint64
	}{
		{"md", Chain(6), nv.ScenarioLab, 11, 0, workload.PoissonClass(0.7, 2, 0.64, false), 0.5, 116, 101048, 14, 12, 0},
		{"ck-deadline-loss", Chain(4), nv.ScenarioLab, 5, 0.001, ck, 1, 19074, 69694, 10, 16, 4},
		{"ql2020-md-loss", Chain(3), nv.ScenarioQL2020, 3, 0.01, workload.PoissonClass(0.7, 2, 0.64, false), 0.5, 115526, 12360, 9, 3, 0},
		{"ql2020-ck-deadline-loss", Chain(3), nv.ScenarioQL2020, 5, 0.001, qlCK, 3, 94920, 22939, 10, 7, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(tc.spec, tc.scenario)
			cfg.Seed = tc.seed
			cfg.ClassicalLossProb = tc.loss
			nw, err := NewNetwork(cfg)
			if err != nil {
				t.Fatal(err)
			}
			attachPoisson(t, nw, tc.class)
			nw.Run(sim.DurationSeconds(tc.seconds))
			_, agg := nw.Stats()
			if got := nw.Sim.Executed(); got != tc.events {
				t.Errorf("events = %d, want %d", got, tc.events)
			}
			if got := nw.Attempts(); got != tc.attempts {
				t.Errorf("attempts = %d, want %d", got, tc.attempts)
			}
			if agg.Requests != tc.requests || agg.Pairs != tc.pairs || agg.Errors != tc.errors {
				t.Errorf("requests/pairs/errors = %d/%d/%d, want %d/%d/%d",
					agg.Requests, agg.Pairs, agg.Errors, tc.requests, tc.pairs, tc.errors)
			}
		})
	}
}

// TestMultiTrafficShardParity requires the merged per-class accounts — and
// the SLO report built from them — to be byte-identical between the serial
// engine and a 4-shard run.
func TestMultiTrafficShardParity(t *testing.T) {
	serialNet, serialMT := runMixed(t, 0, 0.5)
	shardNet, shardMT := runMixed(t, 4, 0.5)

	if serialNet.Sim.Executed() != shardNet.Sim.Executed() {
		t.Errorf("events: serial %d != sharded %d", serialNet.Sim.Executed(), shardNet.Sim.Executed())
	}
	if !reflect.DeepEqual(serialMT.Accounts(), shardMT.Accounts()) {
		t.Error("merged class accounts differ between serial and sharded runs")
	}
	if !reflect.DeepEqual(serialMT.OldestWaits(), shardMT.OldestWaits()) {
		t.Error("oldest-wait folds differ between serial and sharded runs")
	}
	serialSLO := serialMT.SLO(0.5)
	shardSLO := shardMT.SLO(0.5)
	if !reflect.DeepEqual(serialSLO, shardSLO) {
		t.Errorf("SLO reports differ:\nserial:  %+v\nsharded: %+v", serialSLO, shardSLO)
	}
}

// TestMultiTrafficAccounting sanity-checks the SLO bookkeeping of a mixed
// run: every class offers traffic, delivered pairs are accounted with
// time-to-pair samples, and the identity offered = rejected + terminal +
// outstanding holds per class.
func TestMultiTrafficAccounting(t *testing.T) {
	_, mt := runMixed(t, 0, 1)
	accounts := mt.Accounts()
	slos := mt.SLO(1)
	if len(accounts) != 3 || len(slos) != 3 {
		t.Fatalf("want 3 classes, got %d accounts / %d SLO rows", len(accounts), len(slos))
	}
	for i, a := range accounts {
		if a.Offered == 0 {
			t.Errorf("class %d offered no requests", i)
		}
		if got := a.Rejected + a.Terminal() + a.Outstanding(); got != a.Offered {
			t.Errorf("class %d: rejected %d + terminal %d + outstanding %d != offered %d",
				i, a.Rejected, a.Terminal(), a.Outstanding(), a.Offered)
		}
		if a.Pairs > 0 && a.TTP.Count() == 0 {
			t.Errorf("class %d delivered pairs but recorded no time-to-pair samples", i)
		}
	}
	for _, s := range slos {
		if s.Pairs > 0 && s.TTPP99 <= 0 {
			t.Errorf("class %s: pairs delivered but p99 time-to-pair is %g", s.Class, s.TTPP99)
		}
		if s.TimeoutRate < 0 || s.TimeoutRate > 1 {
			t.Errorf("class %s: timeout rate %g out of [0,1]", s.Class, s.TimeoutRate)
		}
	}
}

// TestClosedLoopBounded checks the closed-loop invariant: a session
// population of n never has more than n of its requests in flight.
func TestClosedLoopBounded(t *testing.T) {
	cfg := DefaultConfig(Chain(4), nv.ScenarioLab)
	cfg.Seed = 5
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 5
	mt, err := nw.AttachWorkload([]workload.ClassSpec{{
		Name:     "ck",
		Priority: egp.PriorityCK,
		Arrival:  workload.Arrival{Kind: workload.ArrivalClosed, Sessions: sessions, ThinkTime: sim.DurationSeconds(0.05)},
		MinPairs: 1, MaxPairs: 1,
		MinFidelity: 0.64,
	}})
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(sim.DurationSeconds(1))
	a := mt.Accounts()[0]
	if a.Offered == 0 {
		t.Fatal("closed-loop population never submitted")
	}
	if out := a.Outstanding(); out > sessions {
		t.Errorf("%d requests in flight exceeds the %d-session population", out, sessions)
	}
}

// TestMultiTrafficRejectsBadClasses covers constructor validation.
func TestMultiTrafficRejectsBadClasses(t *testing.T) {
	cfg := DefaultConfig(Chain(3), nv.ScenarioLab)
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.AttachWorkload(nil); err == nil {
		t.Error("empty class list accepted")
	}
	if _, err := nw.AttachWorkload([]workload.ClassSpec{{
		Name:     "bad",
		Priority: egp.PriorityMD,
		Arrival:  workload.Arrival{Kind: workload.ArrivalPoisson}, // no intensity
		MinPairs: 1, MaxPairs: 1,
		MinFidelity: 0.64,
	}}); err == nil {
		t.Error("class without an arrival intensity accepted")
	}
}
