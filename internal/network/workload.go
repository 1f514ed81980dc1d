package network

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/wire"
	"repro/internal/workload"
)

// AttachWorkload drives the service with the link layer's workload engine,
// netsim.MultiTraffic, with one site per (src, dst) flow: every class offers
// its load on every flow. A Load-driven class's rate on a flow is
// Load·PathPairRate/k̄ at the per-hop fidelity floor of the flow's path at
// attach time (swaps consume one link pair per hop and hops generate
// concurrently, so the slowest hop bounds the sustainable rate); a flow
// without a path gets rate 0. Requests go through Create on the NL lane the
// class names, and the engine's accounting is chained onto whatever OnOK and
// OnError hooks are installed now. The engine starts and stops with the
// network.
func (s *Service) AttachWorkload(classes []workload.ClassSpec, flows [][2]int) (*netsim.MultiTraffic, error) {
	sites := make([]netsim.Site, len(flows))
	siteOf := make(map[[2]int]int, len(flows))
	for i, f := range flows {
		if _, dup := siteOf[f]; dup {
			return nil, fmt.Errorf("network: flow %d-%d listed twice", f[0], f[1])
		}
		siteOf[f] = i
		path, pathErr := s.router.Path(f[0], f[1])
		sites[i] = netsim.Site{
			Eng: s.nw.Sim,
			Rate: func(c *workload.ClassSpec) float64 {
				if pathErr != nil {
					return 0
				}
				floor := PerHopFidelityFloor(c.MinFidelity, path.Hops(), s.cfg.SwapGateFidelity)
				return c.Arrival.Load * PathPairRate(s.nw, path, floor) / c.MeanPairs()
			},
			Submit: func(c *workload.ClassSpec, pairs int) (uint64, wire.EGPError) {
				id, code := s.Create(CreateRequest{
					SrcNode:     f[0],
					DstNode:     f[1],
					NumPairs:    pairs,
					MinFidelity: c.MinFidelity,
					MaxTime:     c.Deadline,
					Priority:    c.Priority,
				})
				return uint64(id), code
			},
		}
	}
	mt, err := s.nw.AttachSites(classes, sites)
	if err != nil {
		return nil, err
	}
	prevOK := s.OnOK
	s.OnOK = func(ev OKEvent) {
		if prevOK != nil {
			prevOK(ev)
		}
		if i, ok := siteOf[[2]int{ev.Src, ev.Dst}]; ok {
			mt.Delivered(i, uint64(ev.RequestID), ev.PairLatency, ev.RequestDone)
		}
	}
	prevErr := s.OnError
	s.OnError = func(ev ErrorEvent) {
		if prevErr != nil {
			prevErr(ev)
		}
		if i, ok := siteOf[[2]int{ev.Src, ev.Dst}]; ok {
			mt.Failed(i, uint64(ev.RequestID), ev.Code)
		}
	}
	return mt, nil
}
