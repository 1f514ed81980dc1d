package netsim

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/egp"
	"repro/internal/nv"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/workload"
)

func TestTopologyGenerators(t *testing.T) {
	cases := []struct {
		spec  Spec
		nodes int
		links int
	}{
		{Chain(2), 2, 1},
		{Chain(8), 8, 7},
		{Star(5), 5, 4},
		{Grid(3, 3), 9, 12},
		{Grid(2, 4), 8, 10},
		{FromEdges([]Edge{{0, 1}, {1, 2}, {2, 0}}), 3, 3},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if c.spec.Nodes != c.nodes || len(c.spec.Edges) != c.links {
			t.Fatalf("%s: want %d nodes %d links, got %d/%d", c.spec.Name, c.nodes, c.links, c.spec.Nodes, len(c.spec.Edges))
		}
	}
}

func TestSpecValidateRejections(t *testing.T) {
	bad := []Spec{
		{Nodes: 1, Edges: []Edge{{0, 0}}},
		{Nodes: 3},                                // no links
		{Nodes: 3, Edges: []Edge{{0, 0}}},         // self loop
		{Nodes: 3, Edges: []Edge{{0, 5}}},         // out of range
		{Nodes: 3, Edges: []Edge{{0, 1}, {1, 0}}}, // duplicate after normalization
		{Nodes: 3, Edges: []Edge{{-1, 1}}},        // negative
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestParseEdgeList(t *testing.T) {
	edges, err := ParseEdgeList("0-1, 1-2 ,2-0")
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 3 || edges[2] != (Edge{2, 0}) {
		t.Fatalf("unexpected edges %v", edges)
	}
	for _, bad := range []string{"", "0", "a-b", "1-"} {
		if _, err := ParseEdgeList(bad); err == nil {
			t.Errorf("ParseEdgeList(%q): expected error", bad)
		}
	}
}

func TestGridDegrees(t *testing.T) {
	deg := Grid(3, 3).Degrees()
	// Corners have 2 links, edges 3, the centre 4.
	want := []int{2, 3, 2, 3, 4, 3, 2, 3, 2}
	for i, d := range deg {
		if d != want[i] {
			t.Fatalf("node %d: degree %d, want %d", i, d, want[i])
		}
	}
}

// buildRunChain runs a short measure-directly workload on a chain and
// returns the network.
func runSmall(t *testing.T, spec Spec, seed int64, seconds float64) *Network {
	t.Helper()
	cfg := DefaultConfig(spec, nv.ScenarioLab)
	cfg.Seed = seed
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	attachPoisson(t, nw, workload.PoissonClass(0.7, 2, 0.64, false))
	nw.Run(sim.DurationSeconds(seconds))
	return nw
}

func TestChainDeliversPairs(t *testing.T) {
	nw := runSmall(t, Chain(4), 7, 0.5)
	perLink, agg := nw.Stats()
	if len(perLink) != 3 {
		t.Fatalf("expected 3 link rows, got %d", len(perLink))
	}
	if agg.Pairs == 0 {
		t.Fatal("no pairs delivered on any link")
	}
	for _, ls := range perLink {
		if ls.Pairs == 0 {
			t.Errorf("link %s delivered no pairs", ls.Link)
		}
		if ls.Fidelity <= 0.5 || ls.Fidelity > 1 {
			t.Errorf("link %s: implausible fidelity %f", ls.Link, ls.Fidelity)
		}
	}
	if agg.Requests == 0 || nw.traffic.Accounts()[0].Offered == 0 {
		t.Fatal("traffic generator issued no requests")
	}
}

// TestLinkRegistryRouting checks that the per-node mux actually routed the
// DQP/EGP traffic of every link and dropped nothing.
func TestLinkRegistryRouting(t *testing.T) {
	nw := runSmall(t, Star(4), 7, 0.4)
	centre := nw.Nodes[0]
	if centre.Degree() != 3 {
		t.Fatalf("centre degree %d, want 3", centre.Degree())
	}
	routed, dropped := centre.Mux.Stats()
	if routed == 0 {
		t.Fatal("centre mux routed no messages")
	}
	if dropped != 0 {
		t.Fatalf("centre mux dropped %d messages", dropped)
	}
	for _, l := range centre.Links {
		if centre.EGP(l.ID) == nil {
			t.Fatalf("link registry lost link %d", l.ID)
		}
	}
	// Every link's distributed queue must have completed ADD/ACK handshakes
	// through the mux.
	for _, l := range nw.Links {
		adds, acks, _, _ := l.EGPA.Queue().Stats()
		if adds+acks == 0 {
			t.Errorf("link %s exchanged no DQP frames", l.Name)
		}
	}
}

// render flattens per-link and aggregate stats into one comparable string.
func render(perLink []LinkStats, agg LinkStats) string {
	out := ""
	for _, ls := range append(perLink, agg) {
		out += fmt.Sprintf("%s %d %d %d %.9f %.9f %.9f %.9f %.9f %.9f %.9f\n",
			ls.Link, ls.Requests, ls.Errors, ls.Pairs, ls.OKRate, ls.Fidelity,
			ls.LatencyP50, ls.LatencyP90, ls.LatencyP99, ls.QueueMean, ls.QueueMax)
	}
	return out
}

// TestDeterminism runs the same seed twice (grid topology) and requires
// byte-identical stats.
func TestDeterminism(t *testing.T) {
	a := runSmall(t, Grid(2, 2), 3, 0.4)
	b := runSmall(t, Grid(2, 2), 3, 0.4)
	sa := render(a.Stats())
	sb := render(b.Stats())
	if sa != sb {
		t.Fatalf("same seed produced different stats:\n%s\nvs\n%s", sa, sb)
	}
	c := runSmall(t, Grid(2, 2), 4, 0.4)
	if render(c.Stats()) == sa {
		t.Fatal("different seeds produced identical stats (suspicious)")
	}
}

// TestConcurrentNetworksAreIndependent runs several networks in parallel
// goroutines (exercised under -race by CI) and checks each matches its
// sequential twin, proving independent runs share no mutable state.
func TestConcurrentNetworksAreIndependent(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	want := make([]string, len(seeds))
	for i, s := range seeds {
		want[i] = render(runSmall(t, Chain(3), s, 0.3).Stats())
	}
	got := make([]string, len(seeds))
	var wg sync.WaitGroup
	for i, s := range seeds {
		wg.Add(1)
		go func(i int, s int64) {
			defer wg.Done()
			got[i] = render(runSmall(t, Chain(3), s, 0.3).Stats())
		}(i, s)
	}
	wg.Wait()
	for i := range seeds {
		if got[i] != want[i] {
			t.Errorf("seed %d: concurrent run diverged from sequential run", seeds[i])
		}
	}
}

// TestSubmitDirect submits a request by hand and checks it is delivered and
// accounted on the right link only.
func TestSubmitDirect(t *testing.T) {
	cfg := DefaultConfig(Chain(3), nv.ScenarioLab)
	cfg.Seed = 5
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, code := nw.Submit(nw.Links[0], "A", egp.CreateRequest{
		NumPairs:    1,
		MinFidelity: 0.64,
		Priority:    egp.PriorityMD,
	})
	if code != wire.ErrNone {
		t.Fatalf("submit failed: %v", code)
	}
	nw.Run(sim.DurationSeconds(0.2))
	s0 := nw.Links[0].Stats()
	s1 := nw.Links[1].Stats()
	if s0.Pairs == 0 {
		t.Fatal("link 0 delivered no pairs for the direct request")
	}
	if s1.Pairs != 0 || s1.Requests != 0 {
		t.Fatalf("idle link 1 has activity: %+v", s1)
	}
}

// TestKeepTraffic drives create-and-keep requests through a link.
func TestKeepTraffic(t *testing.T) {
	cfg := DefaultConfig(Chain(2), nv.ScenarioLab)
	cfg.Seed = 9
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	attachPoisson(t, nw, workload.PoissonClass(0.7, 1, 0.62, true))
	nw.Run(sim.DurationSeconds(0.5))
	_, agg := nw.Stats()
	if agg.Pairs == 0 {
		t.Fatal("no create-and-keep pairs delivered")
	}
}

// TestTrafficRestartDoesNotDoubleLoad stops and restarts the workload. A
// restart must invalidate the arrival chains scheduled before the stop
// instead of running a second set alongside the fresh ones. It must also
// leave alone a closed-loop session whose request is still in flight: that
// request cycles its session when it completes, so a fresh think cycle
// would grow the population by its own size on every restart.
func TestTrafficRestartDoesNotDoubleLoad(t *testing.T) {
	cfg := DefaultConfig(Chain(3), nv.ScenarioLab)
	cfg.Seed = 13
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mt, err := nw.AttachWorkload([]workload.ClassSpec{
		workload.PoissonClass(1.0, 1, 0.64, false),
		{
			Name:     "sessions",
			Priority: egp.PriorityCK,
			Arrival:  workload.Arrival{Kind: workload.ArrivalClosed, Sessions: 5, ThinkTime: sim.Millisecond},
			MinPairs: 1, MaxPairs: 1,
			MinFidelity: 0.62,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// checkSessions holds every link's closed-loop requests in flight to
	// the link's share of the population.
	checkSessions := func(round int) {
		t.Helper()
		for i, st := range mt.sites {
			inFlight := 0
			for _, p := range st.pending {
				if p.closed {
					inFlight++
				}
			}
			if inFlight > st.sessions[1] {
				t.Errorf("round %d: link %s has %d session requests in flight, population %d",
					round, nw.Links[i].Name, inFlight, st.sessions[1])
			}
		}
	}
	offered := func() uint64 { return mt.Accounts()[0].Offered }

	nw.Run(sim.DurationSeconds(3))
	checkSessions(0)
	first := offered()
	if first == 0 {
		t.Fatal("no requests in the first window")
	}
	nw.Stop()
	nw.Run(sim.DurationSeconds(3)) // restarts MHP cycles and traffic
	checkSessions(1)
	second := offered() - first
	// A doubled stream would put the second window near 2× the first; allow
	// wide Poisson slack around 1×.
	if float64(second) > 1.5*float64(first) {
		t.Fatalf("restart doubled the arrival streams: %d then %d requests", first, second)
	}
	if second == 0 {
		t.Fatal("traffic never resumed after restart")
	}
	for round := 2; round <= 6; round++ {
		nw.Stop()
		nw.Run(sim.DurationSeconds(0.3))
		checkSessions(round)
	}
	if mt.Accounts()[1].Completed == 0 {
		t.Fatal("no session request completed")
	}
}

func TestInvalidTopologyRejected(t *testing.T) {
	if _, err := NewNetwork(DefaultConfig(Spec{Nodes: 1}, nv.ScenarioLab)); err == nil {
		t.Fatal("expected error for invalid topology")
	}
}
