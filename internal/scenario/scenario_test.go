package scenario

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/egp"
	"repro/internal/netsim"
	"repro/internal/nv"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestCommittedSpecsRoundTrip pins the committed spec library: every file
// parses, compiles and re-emits byte-identically (parse → Canonical is the
// identity on canonical files).
func TestCommittedSpecsRoundTrip(t *testing.T) {
	paths, err := filepath.Glob("../../scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed specs found under scenarios/")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := Parse(data, path)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		if _, err := sp.Compile(); err != nil {
			t.Fatalf("compile %s: %v", path, err)
		}
		canon, err := sp.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, canon) {
			t.Errorf("%s is not byte-stable under parse → Canonical; run repro check -w", path)
		}
	}
}

// TestParseRejectsUnknownFields requires strict decoding with line context:
// a typo anywhere in the document must fail, naming the field and its
// position.
func TestParseRejectsUnknownFields(t *testing.T) {
	doc := []byte(`{
  "name": "x",
  "topology": {
    "kind": "chain",
    "nodes": 4,
    "nodse": 5
  }
}
`)
	_, err := Parse(doc, "typo.json")
	if err == nil {
		t.Fatal("unknown field accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown field "nodse"`) {
		t.Errorf("error does not name the field: %v", err)
	}
	if !strings.Contains(msg, "typo.json:6:") {
		t.Errorf("error does not carry line context: %v", err)
	}
	if !strings.Contains(msg, `"nodse": 5`) {
		t.Errorf("error does not quote the source line: %v", err)
	}
}

// TestParseRejectsBadDocuments covers the other strictness rules: type
// mismatches with position, syntax errors, trailing content, missing name.
func TestParseRejectsBadDocuments(t *testing.T) {
	cases := []struct {
		label string
		doc   string
		want  string
	}{
		{"type mismatch", "{\n  \"name\": \"x\",\n  \"topology\": {\"kind\": \"chain\", \"nodes\": \"four\"}\n}\n", "nodes cannot hold a JSON string"},
		{"type mismatch line", "{\n  \"name\": \"x\",\n  \"topology\": {\"kind\": \"chain\", \"nodes\": \"four\"}\n}\n", "bad.json:3:"},
		{"syntax error", "{\n  \"name\": \"x\",,\n}\n", "bad.json:2:"},
		{"trailing content", "{\"name\": \"x\", \"topology\": {\"kind\": \"chain\", \"nodes\": 4}}\n{\"more\": 1}\n", "trailing content"},
		{"missing name", "{\"topology\": {\"kind\": \"chain\", \"nodes\": 4}}\n", "needs a name"},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.doc), "bad.json")
		if err == nil {
			t.Errorf("%s: accepted", tc.label)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.label, err, tc.want)
		}
	}
}

// TestCompileRejectsInvalidValues spot-checks section validation: every error
// names the spec and the offending section.
func TestCompileRejectsInvalidValues(t *testing.T) {
	f := func(mutate func(*Spec)) error {
		s := &Spec{Name: "t", Topology: Topology{Kind: "chain", Nodes: 4}}
		mutate(s)
		_, err := s.Compile()
		return err
	}
	cases := []struct {
		label  string
		mutate func(*Spec)
		want   string
	}{
		{"bad scenario", func(s *Spec) { s.Hardware = &Hardware{Scenario: "Moon"} }, "hardware"},
		{"bad backend", func(s *Spec) { s.Hardware = &Hardware{Backend: "sparse"} }, "hardware"},
		{"negative shards", func(s *Spec) { s.Engine = &Engine{Shards: -1} }, "engine"},
		{"bad scheduler", func(s *Spec) { s.Protocol = &Protocol{Scheduler: "SJF"} }, "protocol"},
		{"loss out of range", func(s *Spec) { s.Protocol = &Protocol{ClassicalLoss: 1} }, "protocol"},
		{"bad priority", func(s *Spec) {
			s.Traffic = &Traffic{Classes: []Class{{Name: "a", Priority: "URGENT", Arrival: ArrivalSpec{Kind: "poisson", Load: 0.5}}}}
		}, "classes[0]"},
		{"duplicate class", func(s *Spec) {
			cl := Class{Name: "a", Priority: "MD", Arrival: ArrivalSpec{Kind: "poisson", Load: 0.5}}
			s.Traffic = &Traffic{Classes: []Class{cl, cl}}
		}, "duplicate class"},
		{"two intensities", func(s *Spec) {
			s.Traffic = &Traffic{Classes: []Class{{Name: "a", Priority: "MD",
				Arrival: ArrivalSpec{Kind: "poisson", Load: 0.5, Users: 10, PerUserRate: 1}}}}
		}, "classes[0]"},
		{"standing without pairs", func(s *Spec) { s.Traffic = &Traffic{Standing: []Standing{{}}} }, "standing[0]"},
		{"bad cost", func(s *Spec) { s.Service = &Service{Cost: "latency"} }, "service"},
		{"service with shards", func(s *Spec) {
			s.Engine = &Engine{Shards: 4}
			s.Service = &Service{}
		}, "serial-only"},
		{"routers on chain", func(s *Spec) { s.Topology.Routers = 3 }, "topology"},
		{"class fidelity out of range", func(s *Spec) {
			s.Traffic = &Traffic{Classes: []Class{{Name: "a", Priority: "MD", MinFidelity: 1.5,
				Arrival: ArrivalSpec{Kind: "poisson", Load: 0.5}}}}
		}, "classes[0]"},
		// A service spec's traffic runs on its flow or fails to compile;
		// it is never dropped.
		{"service with standing and an MD class", func(s *Spec) {
			s.Service = &Service{}
			s.Traffic = &Traffic{
				Classes:  []Class{{Name: "md", Priority: "MD", Arrival: ArrivalSpec{Kind: "poisson", Load: 0.9}}},
				Standing: []Standing{{Pairs: 1000000}},
			}
		}, "traffic: standing"},
		{"service with standing", func(s *Spec) {
			s.Service = &Service{}
			s.Traffic = &Traffic{Standing: []Standing{{Pairs: 4096}}}
		}, "traffic: standing"},
		{"service class off the NL lane", func(s *Spec) {
			s.Service = &Service{}
			s.Traffic = &Traffic{Classes: []Class{{Name: "ck", Priority: "CK", Arrival: ArrivalSpec{Kind: "poisson", Load: 0.3}}}}
		}, "traffic: classes[0]: priority CK"},
		{"service class with an origin", func(s *Spec) {
			s.Service = &Service{}
			s.Traffic = &Traffic{Classes: []Class{{Name: "nl", Priority: "NL", Origin: "B", Arrival: ArrivalSpec{Kind: "poisson", Load: 0.3}}}}
		}, "traffic: classes[0]: origin"},
		{"outage count out of range", func(s *Spec) {
			s.Faults = &Faults{Outages: &RandomOutages{Count: 1 << 30, WindowS: 1, MinDownS: 0.1, MaxDownS: 0.2}}
		}, "faults"},
	}
	for _, tc := range cases {
		err := f(tc.mutate)
		if err == nil {
			t.Errorf("%s: accepted", tc.label)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.label, err, tc.want)
		}
		if !strings.Contains(err.Error(), `scenario "t"`) && !strings.Contains(err.Error(), "scenario") {
			t.Errorf("%s: error %q does not name the scenario", tc.label, err)
		}
	}
}

// TestCompileDefaults checks the documented defaults of a minimal spec.
func TestCompileDefaults(t *testing.T) {
	s := &Spec{Name: "min", Topology: Topology{Kind: "chain", Nodes: 4}}
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want := netsim.DefaultConfig(netsim.Chain(4), nv.ScenarioLab)
	if !reflect.DeepEqual(c.Config, want) {
		t.Errorf("minimal spec config = %+v, want DefaultConfig %+v", c.Config, want)
	}
	if c.Seconds != 1 || c.Trials != 3 {
		t.Errorf("run window = %g s x %d, want 1 s x 3", c.Seconds, c.Trials)
	}
	if len(c.Classes) != 0 || c.Service != nil {
		t.Error("minimal spec should compile with no traffic and no service")
	}
}

// TestSpecReproducesFlagConfig is the golden parity test: the committed
// chain-16 bench spec, compiled and attached, must reproduce the classic
// flag-built configuration byte for byte — identical config, identical
// workload class, identical deterministic counters, identical stats tables
// after a run.
func TestSpecReproducesFlagConfig(t *testing.T) {
	sp, err := Load("../../scenarios/chain16-bench.json")
	if err != nil {
		t.Fatal(err)
	}
	c, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}

	// The flag-era reference: DefaultConfig on the Lab hardware, the
	// paper's Poisson arrival model as one class, one 4096-pair standing MD
	// request per link.
	cfg := netsim.DefaultConfig(netsim.Chain(16), nv.ScenarioLab)
	if !reflect.DeepEqual(c.Config, cfg) {
		t.Fatalf("spec config %+v != flag config %+v", c.Config, cfg)
	}
	class := workload.PoissonClass(0.7, 2, 0.64, false)
	if !reflect.DeepEqual(c.Classes, []workload.ClassSpec{class}) {
		t.Fatalf("spec workload %+v != flag workload %+v", c.Classes, class)
	}

	build := func(attach func(*netsim.Network) error) *netsim.Network {
		nw, err := netsim.NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := attach(nw); err != nil {
			t.Fatal(err)
		}
		nw.Run(sim.DurationSeconds(0.2))
		return nw
	}

	specNet := build(func(nw *netsim.Network) error {
		_, err := c.Attach(nw)
		return err
	})
	flagNet := build(func(nw *netsim.Network) error {
		if _, err := nw.AttachWorkload([]workload.ClassSpec{class}); err != nil {
			return err
		}
		for _, l := range nw.Links {
			if _, code := nw.Submit(l, "A", egp.CreateRequest{
				NumPairs:    4096,
				MinFidelity: 0.64,
				Priority:    egp.PriorityMD,
				PurposeID:   1,
				Consecutive: true,
			}); code != wire.ErrNone {
				t.Fatalf("primer rejected: %s", code)
			}
		}
		return nil
	})

	if got, want := specNet.Sim.Executed(), flagNet.Sim.Executed(); got != want {
		t.Errorf("events: spec %d != flags %d", got, want)
	}
	if got, want := specNet.Attempts(), flagNet.Attempts(); got != want {
		t.Errorf("attempts: spec %d != flags %d", got, want)
	}
	specLinks, specAgg := specNet.Stats()
	flagLinks, flagAgg := flagNet.Stats()
	if !reflect.DeepEqual(specLinks, flagLinks) {
		t.Error("per-link stats tables differ between spec and flag paths")
	}
	if !reflect.DeepEqual(specAgg, flagAgg) {
		t.Errorf("aggregate stats differ: spec %+v != flags %+v", specAgg, flagAgg)
	}
}

// TestCompileRejectsOversizedTopologies requires specs past the size limit
// to fail fast, before a generator lays out their edges, while the largest
// topologies in use still compile.
func TestCompileRejectsOversizedTopologies(t *testing.T) {
	cases := []struct {
		topo Topology
		ok   bool
	}{
		{Topology{Kind: "chain", Nodes: 256}, true},
		{Topology{Kind: "dragonfly", Nodes: 20}, true},
		{Topology{Kind: "grid", Nodes: 4096}, true},
		{Topology{Kind: "chain", Nodes: 20000000}, false},
		{Topology{Kind: "grid", Nodes: 100000000}, false},
		{Topology{Kind: "star", Nodes: maxNodes + 1}, false},
		{Topology{Kind: "dragonfly", Nodes: 4096}, false},
		{Topology{Kind: "dragonfly", Routers: 2048, Groups: 2}, false},
		{Topology{Kind: "dragonfly", Routers: math.MaxInt, Groups: 2}, false},
		{Topology{Kind: "dragonfly", Routers: math.MaxInt, Groups: math.MaxInt}, false},
		{Topology{Kind: "edges", Edges: "0-1,1-20000000"}, false},
	}
	for _, tc := range cases {
		start := time.Now()
		_, err := (&Spec{Name: "t", Topology: tc.topo}).Compile()
		if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
			t.Errorf("%+v: compile took %v", tc.topo, elapsed)
		}
		switch {
		case tc.ok && err != nil:
			t.Errorf("%+v: rejected: %v", tc.topo, err)
		case !tc.ok && err == nil:
			t.Errorf("%+v: accepted", tc.topo)
		case !tc.ok && !strings.Contains(err.Error(), "topology"):
			t.Errorf("%+v: error %q does not name the topology section", tc.topo, err)
		}
	}
}

// TestCompileMixedClasses pins the multi-class resolution of the committed
// acceptance spec: three classes, correct priorities, arrival kinds and
// filled defaults.
func TestCompileMixedClasses(t *testing.T) {
	sp, err := Load("../../scenarios/chain8-mixed.json")
	if err != nil {
		t.Fatal(err)
	}
	c, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Classes) != 3 {
		t.Fatalf("got %d classes, want 3", len(c.Classes))
	}
	md, nl, ck := c.Classes[0], c.Classes[1], c.Classes[2]
	if md.Priority != egp.PriorityMD || nl.Priority != egp.PriorityNL || ck.Priority != egp.PriorityCK {
		t.Errorf("priorities = %d/%d/%d, want MD/NL/CK", md.Priority, nl.Priority, ck.Priority)
	}
	if md.MinPairs != 1 || md.MaxPairs != 2 {
		t.Errorf("MD pair range = [%d,%d], want [1,2]", md.MinPairs, md.MaxPairs)
	}
	if md.MinFidelity != 0.64 {
		t.Errorf("MD min fidelity default = %g, want 0.64", md.MinFidelity)
	}
	if nl.Arrival.Users != 2000000 || nl.Origin != workload.OriginA {
		t.Errorf("NL class resolved wrong: %+v", nl)
	}
	if !ck.Arrival.Closed() || ck.Arrival.Sessions != 21 {
		t.Errorf("CK class should be closed-loop with 21 sessions: %+v", ck.Arrival)
	}
	if ck.Deadline != sim.DurationSeconds(1) {
		t.Errorf("CK deadline = %v, want 1 s", ck.Deadline)
	}
}

// TestServiceSpecResolution pins the service section: an omitted (or
// negative) dst selects the last node, an explicit dst equal to src is
// rejected, defaults fill in, no traffic is invented, HoldPairs is implied.
func TestServiceSpecResolution(t *testing.T) {
	s := &Spec{
		Name:     "svc",
		Topology: Topology{Kind: "chain", Nodes: 5},
		Service:  &Service{},
	}
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sv := c.Service
	if sv.Src != 0 || sv.Dst != 4 {
		t.Errorf("src/dst = %d/%d, want 0/4", sv.Src, sv.Dst)
	}
	zero := 0
	bad := &Spec{
		Name:     "svc",
		Topology: Topology{Kind: "chain", Nodes: 5},
		Service:  &Service{Dst: &zero},
	}
	if _, err := bad.Compile(); err == nil || !strings.Contains(err.Error(), "src/dst") {
		t.Errorf("explicit dst == src accepted (err = %v)", err)
	}
	if sv.Cost != "hops" || sv.SwapGateFidelity != 1 {
		t.Errorf("cost/gate defaults wrong: %q/%g", sv.Cost, sv.SwapGateFidelity)
	}
	if len(c.Classes) != 0 {
		t.Errorf("a service spec without traffic compiled to classes %+v", c.Classes)
	}
	if !c.Config.HoldPairs {
		t.Error("a service section must imply HoldPairs")
	}
}
