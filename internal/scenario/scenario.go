// Package scenario is the declarative run-description API: a JSON scenario
// spec is the single way to describe a simulation run — topology, hardware,
// engine, protocol options, traffic (a multi-class workload, standing
// requests) and an optional end-to-end service section — and compiles into
// the imperative configuration of today's packages (netsim.Config, workload
// class specs, the service's flow). cmd/repro
// runs a spec file (repro run <file>); committed specs live under scenarios/
// and grow the suite without new Go code per scenario.
//
// Parsing is strict: unknown fields, type mismatches and syntax errors are
// rejected with file:line:column context. Specs have a canonical encoding
// (Canonical), and committed files are kept in it so parse → re-emit is
// byte-stable.
package scenario

import (
	"fmt"

	"repro/internal/sim"
)

// Spec is the root of a scenario file. Only Name and Topology are required;
// every omitted section takes its defaults, so a minimal spec is
// {"name": ..., "topology": {...}}.
type Spec struct {
	// Name identifies the scenario (table captions, bench JSON files).
	Name string `json:"name"`
	// Description is a one-line summary for listings.
	Description string `json:"description,omitempty"`
	// Topology selects the node graph.
	Topology Topology `json:"topology"`
	// Hardware selects the platform model (default: Lab, stock parameters).
	Hardware *Hardware `json:"hardware,omitempty"`
	// Engine selects seed and shard count.
	Engine *Engine `json:"engine,omitempty"`
	// Protocol tunes the link-layer protocol options.
	Protocol *Protocol `json:"protocol,omitempty"`
	// Run sets the simulated duration and trial count.
	Run *Run `json:"run,omitempty"`
	// Traffic describes the offered workload.
	Traffic *Traffic `json:"traffic,omitempty"`
	// Service, when present, runs the network layer end to end over the
	// topology; link-layer runs omit it.
	Service *Service `json:"service,omitempty"`
	// Faults schedules deterministic fault injection over the run: link
	// down/up, node outages and degraded mode, as explicit events and/or a
	// seeded outage generator. Omitted, the run is fault-free at zero cost.
	Faults *Faults `json:"faults,omitempty"`
}

// Topology selects the node graph: one of the named generators, or an
// explicit edge list.
type Topology struct {
	// Kind is chain, star, grid, dragonfly or edges.
	Kind string `json:"kind"`
	// Nodes is the node count for chain/star/grid (grid needs a perfect
	// square) and, alternatively to routers/groups, for dragonfly (which
	// then picks the most balanced K·M factorisation).
	Nodes int `json:"nodes,omitempty"`
	// Routers/Groups pin the dragonfly D3(K, M) shape exactly.
	Routers int `json:"routers,omitempty"`
	Groups  int `json:"groups,omitempty"`
	// Edges is the explicit edge list for kind "edges", e.g. "0-1,1-2,2-0".
	Edges string `json:"edges,omitempty"`
}

// Hardware selects the platform model and pair-state backend.
type Hardware struct {
	// Scenario is the hardware scenario: Lab (default) or QL2020.
	Scenario string `json:"scenario,omitempty"`
	// Backend is the pair-state representation: dense (exact) or belldiag
	// (the O(1) fast path). Empty defers to $REPRO_BACKEND, then dense.
	Backend string `json:"backend,omitempty"`
	// MemoryQubits overrides the per-node carbon memory count (0 keeps the
	// scenario's own value).
	MemoryQubits int `json:"memory_qubits,omitempty"`
	// IdealMemory switches off storage decay (infinite coherence times, no
	// attempt dephasing) — generation and gate noise stay. Used by
	// closed-form validation runs.
	IdealMemory bool `json:"ideal_memory,omitempty"`
}

// Engine selects the simulation engine of the run.
type Engine struct {
	// Seed is the base random seed (default 1); trial i derives its own seed
	// from it.
	Seed int64 `json:"seed,omitempty"`
	// Shards selects the engine: <=1 serial, >1 a conservative parallel
	// engine with that many worker shards. Results are identical either way.
	Shards int `json:"shards,omitempty"`
}

// Protocol tunes the link-layer protocol options; zero values take the
// defaults of netsim.DefaultConfig.
type Protocol struct {
	// Scheduler is the per-link EGP scheduler: FCFS (default), LowerWFQ or
	// HigherWFQ.
	Scheduler string `json:"scheduler,omitempty"`
	// ClassicalLoss is the per-frame loss probability of every classical
	// channel.
	ClassicalLoss float64 `json:"classical_loss,omitempty"`
	// MaxQueueLen bounds each distributed-queue lane (default 256).
	MaxQueueLen int `json:"max_queue_len,omitempty"`
	// StorageMargin is the FEU fidelity head-room (default 0.05; an explicit
	// 0 disables it, which is why the field is a pointer).
	StorageMargin *float64 `json:"storage_margin,omitempty"`
	// EmissionMultiplexing allows M attempts to overlap midpoint replies
	// (default true; pointer so an explicit false survives).
	EmissionMultiplexing *bool `json:"emission_multiplexing,omitempty"`
	// HoldPairs keeps delivered K pairs in memory instead of auto-releasing
	// (implied by a service section).
	HoldPairs bool `json:"hold_pairs,omitempty"`
}

// Run sets the measurement window.
type Run struct {
	// Seconds is the simulated duration per trial (default 1).
	Seconds float64 `json:"seconds,omitempty"`
	// Trials is the number of independently seeded repetitions (default 3).
	Trials int `json:"trials,omitempty"`
}

// Traffic describes the offered workload: the traffic classes plus optional
// standing requests priming every link. On a service spec the classes run on
// the service's src→dst flow and standing requests are rejected.
type Traffic struct {
	// Classes is the multi-class workload: per-class user populations,
	// arrival processes, priorities and SLOs.
	Classes []Class `json:"classes,omitempty"`
	// Standing submits one long-lived request per link at build time (the
	// bench primer pattern), keeping every link saturated from t=0.
	Standing []Standing `json:"standing,omitempty"`
}

// Class is one traffic class of the multi-class workload engine.
type Class struct {
	// Name labels the class in SLO tables.
	Name string `json:"name"`
	// Priority is the EGP lane: NL, CK or MD (NL only on a service spec).
	Priority string `json:"priority"`
	// Arrival is the class's request arrival process.
	Arrival ArrivalSpec `json:"arrival"`
	// MinPairs/MaxPairs bound the uniformly drawn pair count per request
	// (defaults 1/1); FixedPairs pins it instead.
	MinPairs   int `json:"min_pairs,omitempty"`
	MaxPairs   int `json:"max_pairs,omitempty"`
	FixedPairs int `json:"fixed_pairs,omitempty"`
	// MinFidelity is the requested fidelity floor (default 0.64).
	MinFidelity float64 `json:"min_fidelity,omitempty"`
	// DeadlineS is the per-request timeout in seconds (0 = none); misses
	// count into the class's timeout rate.
	DeadlineS float64 `json:"deadline_s,omitempty"`
	// Origin is the submitting endpoint policy: A, B or random (default).
	// A service spec's flow is directional, so its classes leave it unset.
	Origin string `json:"origin,omitempty"`
}

// ArrivalSpec describes a class's arrival process. kind selects the shape;
// open-loop kinds (poisson, bursty, diurnal) take exactly one intensity —
// load, or users with per_user_rate — and closed takes sessions with
// think_time_s.
type ArrivalSpec struct {
	// Kind is poisson, bursty, diurnal or closed.
	Kind string `json:"kind"`
	// Load is the offered load fraction f, per link (per flow on a service
	// spec).
	Load float64 `json:"load,omitempty"`
	// Users x PerUserRate is the aggregate open-loop request rate across the
	// network (split evenly over links, or flows). Millions of users cost
	// nothing: open-loop populations exist only as a rate.
	Users       int     `json:"users,omitempty"`
	PerUserRate float64 `json:"per_user_rate,omitempty"`
	// BurstMultiplier/MeanBurstS/MeanIdleS shape the bursty
	// (Markov-modulated) process.
	BurstMultiplier float64 `json:"burst_multiplier,omitempty"`
	MeanBurstS      float64 `json:"mean_burst_s,omitempty"`
	MeanIdleS       float64 `json:"mean_idle_s,omitempty"`
	// PeriodS/Phases shape the diurnal profile; fractions must sum to 1.
	PeriodS float64     `json:"period_s,omitempty"`
	Phases  []PhaseSpec `json:"phases,omitempty"`
	// Sessions/ThinkTimeS size the closed-loop population: each session
	// issues its next request when the previous one finishes, after an
	// exponential think time.
	Sessions   int     `json:"sessions,omitempty"`
	ThinkTimeS float64 `json:"think_time_s,omitempty"`
}

// PhaseSpec is one diurnal phase: fraction of the period at a rate
// multiplier.
type PhaseSpec struct {
	Fraction   float64 `json:"fraction"`
	Multiplier float64 `json:"multiplier"`
}

// Standing is one long-lived request submitted on every link at build time
// (from the link's A endpoint, before the run starts).
type Standing struct {
	// Pairs is the request's pair count (bench uses 4096).
	Pairs int `json:"pairs"`
	// MinFidelity is the fidelity floor (default 0.64).
	MinFidelity float64 `json:"min_fidelity,omitempty"`
	// Priority is NL, CK or MD (default MD).
	Priority string `json:"priority,omitempty"`
}

// Service runs the network layer end to end over the topology, routing one
// source–destination flow; the traffic section's classes drive it.
type Service struct {
	// Src/Dst are the end-to-end pair's endpoints. Dst omitted (or negative)
	// selects the last node.
	Src int  `json:"src"`
	Dst *int `json:"dst,omitempty"`
	// Cost is the routing metric: hops (default), fidelity or rate.
	Cost string `json:"cost,omitempty"`
	// SwapGateFidelity is the repeater Bell-state-measurement gate fidelity
	// (default 1).
	SwapGateFidelity float64 `json:"swap_gate_fidelity,omitempty"`
}

// Faults is the fault-injection section: an explicit event list, an optional
// seeded outage generator, or both (generated events are appended after the
// explicit ones). All times are offsets from the start of the run; every
// trial replays the same plan.
type Faults struct {
	// Events are explicit admin-state transitions in schedule order.
	Events []FaultEvent `json:"events,omitempty"`
	// Outages generates seeded random link outages on top of Events.
	Outages *RandomOutages `json:"outages,omitempty"`
}

// FaultEvent is one scheduled admin-state transition of a link or a node.
type FaultEvent struct {
	// AtS is the transition time in seconds from the start of the run.
	AtS float64 `json:"at_s"`
	// State is the admin state entered at AtS: up, degraded or down.
	State string `json:"state"`
	// Link targets one link by its endpoint pair [a, b] (order-insensitive);
	// Node targets every link incident to the node (a node outage). Exactly
	// one of the two must be set.
	Link []int `json:"link,omitempty"`
	Node *int  `json:"node,omitempty"`
	// Degrade parameterises state degraded; invalid with up or down.
	Degrade *DegradeSpec `json:"degrade,omitempty"`
}

// DegradeSpec is the degraded-mode parameter set; each knob applies only
// when set.
type DegradeSpec struct {
	// ClassicalLoss replaces the per-frame loss probability of the link's
	// classical channels.
	ClassicalLoss float64 `json:"classical_loss,omitempty"`
	// PairFidelity applies a depolarising channel of that fidelity to every
	// freshly heralded pair.
	PairFidelity float64 `json:"pair_fidelity,omitempty"`
	// RateDivisor throttles attempt generation to one poll every that many
	// MHP cycles.
	RateDivisor int `json:"rate_divisor,omitempty"`
}

// RandomOutages parameterises the seeded outage generator: count outages on
// uniformly chosen links, starting uniformly in [0, window_s] and repaired
// after a uniform duration in [min_down_s, max_down_s].
type RandomOutages struct {
	// Seed drives the generator's private stream (default: the engine seed).
	Seed int64 `json:"seed,omitempty"`
	// Count is how many down/up cycles to generate.
	Count    int     `json:"count"`
	WindowS  float64 `json:"window_s"`
	MinDownS float64 `json:"min_down_s"`
	MaxDownS float64 `json:"max_down_s"`
}

// seconds converts a seconds field to a sim.Duration.
func seconds(s float64) sim.Duration { return sim.DurationSeconds(s) }

// sectionErr prefixes a validation error with the spec name and section.
func sectionErr(name, section string, err error) error {
	return fmt.Errorf("scenario %q: %s: %w", name, section, err)
}
