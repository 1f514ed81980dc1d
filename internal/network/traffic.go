package network

import (
	"repro/internal/sim"
	"repro/internal/workload"
)

// TrafficConfig describes a Poisson stream of end-to-end requests.
type TrafficConfig struct {
	// Pairs are the candidate (src, dst) node pairs; every pair runs its own
	// independent Poisson arrival process.
	Pairs [][2]int
	// Load scales each pair's request rate: the offered end-to-end pair rate
	// is Load times the path's bottleneck link pair rate (swaps consume one
	// link pair per hop, and hops generate concurrently, so the slowest hop
	// bounds the sustainable rate).
	Load float64
	// MaxPairs is k_max: each request asks for a uniform random number of
	// pairs in [1, MaxPairs].
	MaxPairs int
	// MinFidelity is the end-to-end delivered fidelity floor.
	MinFidelity float64
	// MaxTime is the per-request deadline (0 = none).
	MaxTime sim.Duration
}

// Traffic drives a Service with Poisson end-to-end requests, one shared
// workload.PoissonStream per (src, dst) pair. It is the only end-to-end
// generator; the link layer's is netsim.MultiTraffic.
type Traffic struct {
	svc     *Service
	cfg     TrafficConfig
	streams []*workload.PoissonStream
	pairs   [][2]int
}

// Pairs returns the configured (src, dst) node pairs in stream order.
func (t *Traffic) Pairs() [][2]int { return t.pairs }

// AttachTraffic builds a traffic generator over the service. Pairs whose
// path cannot reach the required per-hop fidelity get rate 0 (no arrivals),
// as workload.RatePerSecond does for an infeasible link-layer class.
func (s *Service) AttachTraffic(cfg TrafficConfig) *Traffic {
	if cfg.MaxPairs <= 0 {
		cfg.MaxPairs = 1
	}
	t := &Traffic{svc: s, cfg: cfg}
	meanPairs := (1 + float64(cfg.MaxPairs)) / 2
	for _, pr := range cfg.Pairs {
		pr := pr
		rate := 0.0
		if path, err := s.router.Path(pr[0], pr[1]); err == nil && cfg.Load > 0 {
			floor := PerHopFidelityFloor(cfg.MinFidelity, path.Hops(), s.cfg.SwapGateFidelity)
			rate = cfg.Load * PathPairRate(s.nw, path, floor) / meanPairs
		}
		t.pairs = append(t.pairs, pr)
		t.streams = append(t.streams, workload.NewPoissonStream(s.nw.Sim, rate, func() { t.fire(pr) }))
	}
	return t
}

// Start schedules the first arrival of every stream.
func (t *Traffic) Start() {
	for _, s := range t.streams {
		s.Start()
	}
}

// Stop halts future arrivals.
func (t *Traffic) Stop() {
	for _, s := range t.streams {
		s.Stop()
	}
}

// Submitted returns how many requests the generator has issued.
func (t *Traffic) Submitted() uint64 {
	var n uint64
	for _, s := range t.streams {
		n += s.Arrivals()
	}
	return n
}

// Rate returns pair i's request arrival rate in requests per second.
func (t *Traffic) Rate(i int) float64 { return t.streams[i].Rate() }

// fire submits one end-to-end request for the pair.
func (t *Traffic) fire(pr [2]int) {
	k := 1
	if t.cfg.MaxPairs > 1 {
		k = 1 + t.svc.nw.Sim.RNG().Intn(t.cfg.MaxPairs)
	}
	t.svc.Create(CreateRequest{
		SrcNode:     pr[0],
		DstNode:     pr[1],
		NumPairs:    k,
		MinFidelity: t.cfg.MinFidelity,
		MaxTime:     t.cfg.MaxTime,
	})
}
