package scenario

import (
	"fmt"
	"math"

	"repro/internal/egp"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/nv"
	"repro/internal/quantum"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Compiled is a fully resolved scenario: every default filled in, every name
// parsed, ready to instantiate. The base Config carries the spec's own seed;
// trial harnesses overwrite Seed (and Trace/Metrics) per instance.
type Compiled struct {
	// Spec is the source spec (unmodified).
	Spec *Spec
	// Topology is the resolved node graph.
	Topology netsim.Spec
	// Config is the resolved link-layer configuration.
	Config netsim.Config
	// Seconds/Trials are the run window (defaults 1 s × 3 trials).
	Seconds float64
	Trials  int

	// Classes is the workload (empty unless configured): on every link, or
	// on the service's flow for a service spec.
	Classes []workload.ClassSpec
	// Standing are the per-link build-time requests.
	Standing []StandingRequest

	// Service is the end-to-end section (nil for link-layer scenarios).
	Service *CompiledService

	// Faults is the resolved fault plan (nil for fault-free scenarios).
	Faults *faults.Plan
}

// StandingRequest is one resolved standing request, submitted on every link
// from its A endpoint before the run starts.
type StandingRequest struct {
	Pairs       int
	MinFidelity float64
	Priority    int
}

// CompiledService is the resolved end-to-end section.
type CompiledService struct {
	Src, Dst         int
	Cost             string
	SwapGateFidelity float64
}

// Compile resolves the spec into runnable configuration, validating every
// section. The returned Compiled is independent of the spec (mutating one
// does not affect the other).
func (s *Spec) Compile() (*Compiled, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("scenario needs a name")
	}
	c := &Compiled{Spec: s, Seconds: 1, Trials: 3}

	topo, err := s.Topology.resolve()
	if err != nil {
		return nil, sectionErr(s.Name, "topology", err)
	}
	if err := topo.Validate(); err != nil {
		return nil, sectionErr(s.Name, "topology", err)
	}
	c.Topology = topo

	hw := s.Hardware
	if hw == nil {
		hw = &Hardware{}
	}
	scen := nv.ScenarioID(hw.Scenario)
	if hw.Scenario == "" {
		scen = nv.ScenarioLab
	}
	switch scen {
	case nv.ScenarioLab, nv.ScenarioQL2020:
	default:
		return nil, sectionErr(s.Name, "hardware", fmt.Errorf("unknown scenario %q (Lab|QL2020)", hw.Scenario))
	}
	backend, err := quantum.ParseBackend(hw.Backend)
	if err != nil {
		return nil, sectionErr(s.Name, "hardware", err)
	}

	cfg := netsim.DefaultConfig(topo, scen)
	cfg.Backend = backend
	if hw.MemoryQubits < 0 {
		return nil, sectionErr(s.Name, "hardware", fmt.Errorf("negative memory_qubits"))
	}
	if hw.MemoryQubits > 0 || hw.IdealMemory {
		p := nv.NewPlatform(scen)
		if hw.MemoryQubits > 0 {
			p.MemoryQubits = hw.MemoryQubits
		}
		if hw.IdealMemory {
			// Generation and gate noise stay; stored qubits stop decaying
			// (the closed-form validation hardware of the network tests).
			p.Gates.ElectronT1 = math.Inf(1)
			p.Gates.ElectronT2 = math.Inf(1)
			p.Gates.CarbonT1 = math.Inf(1)
			p.Gates.CarbonT2 = math.Inf(1)
			p.CarbonCoupling = nv.CarbonCoupling{}
		}
		cfg.Platform = p
	}

	eng := s.Engine
	if eng == nil {
		eng = &Engine{}
	}
	if eng.Seed != 0 {
		cfg.Seed = eng.Seed
	}
	if eng.Shards < 0 {
		return nil, sectionErr(s.Name, "engine", fmt.Errorf("negative shards"))
	}
	cfg.Shards = eng.Shards

	if p := s.Protocol; p != nil {
		if p.Scheduler != "" {
			switch p.Scheduler {
			case "FCFS", "LowerWFQ", "HigherWFQ":
				cfg.Scheduler = p.Scheduler
			default:
				return nil, sectionErr(s.Name, "protocol", fmt.Errorf("unknown scheduler %q (FCFS|LowerWFQ|HigherWFQ)", p.Scheduler))
			}
		}
		if p.ClassicalLoss < 0 || p.ClassicalLoss >= 1 {
			return nil, sectionErr(s.Name, "protocol", fmt.Errorf("classical_loss %g out of [0,1)", p.ClassicalLoss))
		}
		cfg.ClassicalLossProb = p.ClassicalLoss
		if p.MaxQueueLen < 0 {
			return nil, sectionErr(s.Name, "protocol", fmt.Errorf("negative max_queue_len"))
		}
		if p.MaxQueueLen > 0 {
			cfg.MaxQueueLen = p.MaxQueueLen
		}
		if p.StorageMargin != nil {
			if *p.StorageMargin < 0 {
				return nil, sectionErr(s.Name, "protocol", fmt.Errorf("negative storage_margin"))
			}
			cfg.StorageMargin = *p.StorageMargin
		}
		if p.EmissionMultiplexing != nil {
			cfg.EmissionMultiplexing = *p.EmissionMultiplexing
		}
		cfg.HoldPairs = p.HoldPairs
	}

	if r := s.Run; r != nil {
		if r.Seconds < 0 || r.Trials < 0 {
			return nil, sectionErr(s.Name, "run", fmt.Errorf("negative seconds or trials"))
		}
		if r.Seconds > 0 {
			c.Seconds = r.Seconds
		}
		if r.Trials > 0 {
			c.Trials = r.Trials
		}
	}

	if t := s.Traffic; t != nil {
		names := make(map[string]bool, len(t.Classes))
		for i, cl := range t.Classes {
			spec, err := cl.resolve()
			if err != nil {
				return nil, sectionErr(s.Name, fmt.Sprintf("traffic.classes[%d]", i), err)
			}
			if names[spec.Name] {
				return nil, sectionErr(s.Name, fmt.Sprintf("traffic.classes[%d]", i), fmt.Errorf("duplicate class name %q", spec.Name))
			}
			names[spec.Name] = true
			c.Classes = append(c.Classes, spec)
		}
		for i, st := range t.Standing {
			req, err := st.resolve()
			if err != nil {
				return nil, sectionErr(s.Name, fmt.Sprintf("traffic.standing[%d]", i), err)
			}
			c.Standing = append(c.Standing, req)
		}
	}

	if sv := s.Service; sv != nil {
		res, err := sv.resolve(topo.Nodes)
		if err != nil {
			return nil, sectionErr(s.Name, "service", err)
		}
		c.Service = &res
		if err := s.Traffic.checkService(); err != nil {
			return nil, sectionErr(s.Name, "traffic", err)
		}
		// The swap engine consumes held link pairs.
		cfg.HoldPairs = true
		if cfg.Shards > 1 {
			return nil, sectionErr(s.Name, "service", fmt.Errorf("the network layer is serial-only; drop engine.shards"))
		}
	}

	if f := s.Faults; f != nil {
		plan, err := f.resolve(topo, cfg.Seed)
		if err != nil {
			return nil, sectionErr(s.Name, "faults", err)
		}
		if err := plan.Validate(topo); err != nil {
			return nil, sectionErr(s.Name, "faults", err)
		}
		c.Faults = plan
	}

	c.Config = cfg
	return c, nil
}

// resolve maps the faults section onto a fault plan: explicit events in
// order, then the generated outages.
func (f Faults) resolve(topo netsim.Spec, engineSeed int64) (*faults.Plan, error) {
	plan := &faults.Plan{}
	for i, ev := range f.Events {
		fe, err := ev.resolve()
		if err != nil {
			return nil, fmt.Errorf("events[%d]: %w", i, err)
		}
		plan.Events = append(plan.Events, fe)
	}
	if o := f.Outages; o != nil {
		if o.Count <= 0 || o.Count > maxOutages {
			return nil, fmt.Errorf("outages: count must be in [1, %d]", maxOutages)
		}
		seed := o.Seed
		if seed == 0 {
			seed = engineSeed
		}
		gen, err := faults.Outages(topo, faults.OutageSpec{
			Seed:    seed,
			Outages: o.Count,
			Window:  seconds(o.WindowS),
			MinDown: seconds(o.MinDownS),
			MaxDown: seconds(o.MaxDownS),
		})
		if err != nil {
			return nil, fmt.Errorf("outages: %w", err)
		}
		plan.Events = append(plan.Events, gen.Events...)
	}
	if len(plan.Events) == 0 {
		return nil, fmt.Errorf("faults section present but schedules nothing")
	}
	return plan, nil
}

// resolve maps one fault event onto the injector's representation.
func (ev FaultEvent) resolve() (faults.Event, error) {
	if ev.AtS < 0 {
		return faults.Event{}, fmt.Errorf("negative at_s %g", ev.AtS)
	}
	var st netsim.LinkState
	switch ev.State {
	case "up":
		st = netsim.LinkUp
	case "degraded":
		st = netsim.LinkDegraded
	case "down":
		st = netsim.LinkDown
	default:
		return faults.Event{}, fmt.Errorf("unknown state %q (up|degraded|down)", ev.State)
	}
	out := faults.Event{At: seconds(ev.AtS), State: st}
	if len(ev.Link) > 0 {
		if len(ev.Link) != 2 {
			return faults.Event{}, fmt.Errorf("link wants [a, b], got %v", ev.Link)
		}
		out.Link = &netsim.Edge{A: ev.Link[0], B: ev.Link[1]}
	}
	if ev.Node != nil {
		n := *ev.Node
		out.Node = &n
	}
	if (out.Link == nil) == (out.Node == nil) {
		return faults.Event{}, fmt.Errorf("exactly one of link and node must be set")
	}
	if d := ev.Degrade; d != nil {
		if st != netsim.LinkDegraded {
			return faults.Event{}, fmt.Errorf("degrade parameters are only valid with state degraded")
		}
		out.Degrade = &netsim.Degrade{
			ClassicalLoss: d.ClassicalLoss,
			PairFidelity:  d.PairFidelity,
			RateDivisor:   d.RateDivisor,
		}
	}
	return out, nil
}

// maxNodes and maxLinks bound the topology a spec may ask for. Every node
// and link is a full protocol stack, so without a bound a hostile spec
// exhausts memory while the generators lay out its edges. The largest
// network in the repository is Chain(256).
const (
	maxNodes = 4096
	maxLinks = 8192
	// maxOutages bounds the seeded outage generator the same way.
	maxOutages = 1 << 12
)

// resolve maps the topology section onto the netsim generators, rejecting
// oversized topologies before any edge is built.
func (t Topology) resolve() (netsim.Spec, error) {
	tooLarge := fmt.Errorf("topology exceeds the limit of %d nodes and %d links", maxNodes, maxLinks)
	if t.Nodes > maxNodes || t.Routers > maxNodes || t.Groups > maxNodes {
		return netsim.Spec{}, tooLarge
	}
	if t.Kind == "dragonfly" {
		k, m := t.Routers, t.Groups
		if k == 0 && m == 0 {
			var err error
			if k, m, err = netsim.DragonflyShape(t.Nodes); err != nil {
				return netsim.Spec{}, err
			}
		} else {
			if k < 2 || m < 2 {
				return netsim.Spec{}, fmt.Errorf("dragonfly needs routers >= 2 and groups >= 2, got %d/%d", k, m)
			}
			if t.Nodes != 0 && t.Nodes != k*m {
				return netsim.Spec{}, fmt.Errorf("nodes %d contradicts routers*groups = %d", t.Nodes, k*m)
			}
		}
		// Groups are complete graphs, so links grow with the square of
		// the group size.
		if k*m > maxNodes || m*k*(k-1)/2+m*(m-1)/2 > maxLinks {
			return netsim.Spec{}, tooLarge
		}
		return netsim.Dragonfly(k, m), nil
	}
	if t.Routers != 0 || t.Groups != 0 {
		return netsim.Spec{}, fmt.Errorf("routers/groups only apply to kind dragonfly")
	}
	spec, err := netsim.ResolveTopology(t.Kind, t.Nodes, t.Edges)
	if err != nil {
		return netsim.Spec{}, err
	}
	// An edge list sizes itself by its largest node index.
	if spec.Nodes > maxNodes || len(spec.Edges) > maxLinks {
		return netsim.Spec{}, tooLarge
	}
	return spec, nil
}

// resolve maps one class onto the workload engine's spec, filling defaults
// and validating.
func (cl Class) resolve() (workload.ClassSpec, error) {
	prio, err := workload.ParsePriority(cl.Priority)
	if err != nil {
		return workload.ClassSpec{}, err
	}
	origin, err := workload.ParseOrigin(cl.Origin)
	if err != nil {
		return workload.ClassSpec{}, err
	}
	spec := workload.ClassSpec{
		Name:        cl.Name,
		Priority:    prio,
		MinPairs:    cl.MinPairs,
		MaxPairs:    cl.MaxPairs,
		FixedPairs:  cl.FixedPairs,
		MinFidelity: cl.MinFidelity,
		Deadline:    seconds(cl.DeadlineS),
		Origin:      origin,
		Arrival: workload.Arrival{
			Kind:            workload.ArrivalKind(cl.Arrival.Kind),
			Load:            cl.Arrival.Load,
			Users:           cl.Arrival.Users,
			PerUserRate:     cl.Arrival.PerUserRate,
			BurstMultiplier: cl.Arrival.BurstMultiplier,
			MeanBurst:       seconds(cl.Arrival.MeanBurstS),
			MeanIdle:        seconds(cl.Arrival.MeanIdleS),
			Period:          seconds(cl.Arrival.PeriodS),
			Sessions:        cl.Arrival.Sessions,
			ThinkTime:       seconds(cl.Arrival.ThinkTimeS),
		},
	}
	for _, ph := range cl.Arrival.Phases {
		spec.Arrival.Phases = append(spec.Arrival.Phases, workload.Phase{Fraction: ph.Fraction, Multiplier: ph.Multiplier})
	}
	if spec.FixedPairs == 0 {
		if spec.MinPairs == 0 {
			spec.MinPairs = 1
		}
		if spec.MaxPairs == 0 {
			spec.MaxPairs = spec.MinPairs
		}
	}
	if spec.MinFidelity == 0 {
		spec.MinFidelity = 0.64
	}
	if err := spec.Validate(); err != nil {
		return workload.ClassSpec{}, err
	}
	return spec, nil
}

// resolve fills one standing request's defaults.
func (st Standing) resolve() (StandingRequest, error) {
	if st.Pairs <= 0 {
		return StandingRequest{}, fmt.Errorf("standing request needs pairs > 0")
	}
	prio := egp.PriorityMD
	if st.Priority != "" {
		p, err := workload.ParsePriority(st.Priority)
		if err != nil {
			return StandingRequest{}, err
		}
		prio = p
	}
	fmin := st.MinFidelity
	if fmin == 0 {
		fmin = 0.64
	}
	if fmin < 0 || fmin > 1 {
		return StandingRequest{}, fmt.Errorf("min_fidelity %g out of (0,1]", fmin)
	}
	return StandingRequest{Pairs: st.Pairs, MinFidelity: fmin, Priority: prio}, nil
}

// resolve fills the service section's defaults.
func (sv Service) resolve(nodes int) (CompiledService, error) {
	// Dst omitted or negative selects the last node; an explicit dst equal
	// to src is rejected below.
	dst := nodes - 1
	if sv.Dst != nil && *sv.Dst >= 0 {
		dst = *sv.Dst
	}
	if sv.Src < 0 || sv.Src >= nodes || dst < 0 || dst >= nodes || sv.Src == dst {
		return CompiledService{}, fmt.Errorf("bad src/dst pair %d-%d for %d nodes", sv.Src, dst, nodes)
	}
	cost := sv.Cost
	if cost == "" {
		cost = "hops"
	}
	switch cost {
	case "hops", "fidelity", "rate":
	default:
		return CompiledService{}, fmt.Errorf("unknown cost %q (hops|fidelity|rate)", cost)
	}
	gate := sv.SwapGateFidelity
	if gate == 0 {
		gate = 1
	}
	if gate <= 0 || gate > 1 {
		return CompiledService{}, fmt.Errorf("swap_gate_fidelity %g out of (0,1]", gate)
	}
	return CompiledService{Src: sv.Src, Dst: dst, Cost: cost, SwapGateFidelity: gate}, nil
}

// checkService rejects what a service spec's traffic cannot mean: its classes
// run on the service's directional src→dst flow, whose hop requests ride the
// NL lane, and the swap engine owns every link pair, so there is nothing for
// standing link requests to prime.
func (t *Traffic) checkService() error {
	if t == nil {
		return nil
	}
	if len(t.Standing) > 0 {
		return fmt.Errorf("standing: link primers do not apply under the end-to-end service")
	}
	for i, cl := range t.Classes {
		if cl.Priority != "NL" {
			return fmt.Errorf("classes[%d]: priority %s: the end-to-end service submits on the NL lane", i, cl.Priority)
		}
		if cl.Origin != "" {
			return fmt.Errorf("classes[%d]: origin %q: a service flow is directional (src to dst)", i, cl.Origin)
		}
	}
	return nil
}

// Attach installs the compiled traffic on a freshly built network: the
// workload engine, then the standing requests on every link in link order
// (from the A endpoint, matching the bench primer). The returned engine is
// nil for scenarios without a workload. A service spec's classes run on its
// flow (network.Service.AttachWorkload), never on the links, so Attach
// refuses it.
func (c *Compiled) Attach(nw *netsim.Network) (*netsim.MultiTraffic, error) {
	if c.Service != nil {
		return nil, fmt.Errorf("scenario %q: a service spec's traffic runs on its flow, not on the links", c.Spec.Name)
	}
	var mt *netsim.MultiTraffic
	if c.Faults != nil {
		// Install the fault plan before the run starts: every transition
		// becomes an ordinary event on the owning link's engine.
		if err := c.Faults.Schedule(nw); err != nil {
			return nil, fmt.Errorf("scenario %q: faults: %w", c.Spec.Name, err)
		}
	}
	if len(c.Classes) > 0 {
		var err error
		mt, err = nw.AttachWorkload(c.Classes)
		if err != nil {
			return nil, err
		}
	}
	for _, st := range c.Standing {
		for _, l := range nw.Links {
			_, code := nw.Submit(l, "A", egp.CreateRequest{
				NumPairs:    st.Pairs,
				Keep:        st.Priority != egp.PriorityMD,
				MinFidelity: st.MinFidelity,
				Priority:    st.Priority,
				PurposeID:   1,
				Consecutive: st.Priority != egp.PriorityCK,
			})
			if code != wire.ErrNone {
				return nil, fmt.Errorf("scenario %q: standing request on link %s rejected: %s", c.Spec.Name, l.Name, code)
			}
		}
	}
	return mt, nil
}
