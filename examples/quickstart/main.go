// Quickstart: bring up the two-node Lab link, request a handful of
// create-and-keep entangled pairs through the link layer's CREATE interface,
// and print the OKs as they are delivered — the "hello world" of the
// reproduced link layer service.
package main

import (
	"fmt"

	"repro/internal/egp"
	"repro/internal/netsim"
	"repro/internal/nv"
	"repro/internal/sim"
)

func main() {
	// Build the Lab scenario: two NV nodes two metres apart, connected to a
	// heralding station, with the default FCFS scheduler.
	cfg := netsim.DefaultConfig(netsim.Chain(2), nv.ScenarioLab)
	cfg.Seed = 42
	nw, err := netsim.NewNetwork(cfg)
	if err != nil {
		panic(err)
	}
	link := nw.Links[0]
	var oks []egp.OKEvent
	nw.OnLinkOK = func(_ *netsim.Link, ok egp.OKEvent) { oks = append(oks, ok) }

	// Submit one CREATE request from node A: three create-and-keep pairs
	// with a minimum fidelity of 0.6, tagged for application purpose 7.
	sim.Schedule(nw.Sim, 0, func() {
		id, code := nw.Submit(link, "A", egp.CreateRequest{
			NumPairs:    3,
			Keep:        true,
			MinFidelity: 0.6,
			Priority:    egp.PriorityCK,
			PurposeID:   7,
		})
		fmt.Printf("CREATE submitted: id=%d response=%v\n", id, code)
	})

	// Run two seconds of simulated time; the link layer polls the physical
	// layer every MHP cycle (10.12 µs) until the request completes.
	nw.Run(2 * sim.Second)

	fmt.Printf("\nDelivered OKs (%d events, both nodes see each pair):\n", len(oks))
	for _, ok := range oks {
		fmt.Printf("  node %s: pair #%d  qubit=%d  fidelity=%.3f  goodness=%.3f  t=%.3fs\n",
			ok.Node, ok.EntanglementID, ok.LogicalQubit, ok.Fidelity, ok.Goodness, ok.At.Seconds())
	}
	c := link.Collector
	fmt.Printf("\nSummary: %d pairs, throughput %.2f pairs/s, mean fidelity %.3f, request latency %.3f s\n",
		c.OKCount(egp.PriorityCK), c.Throughput(egp.PriorityCK),
		c.Fidelity(egp.PriorityCK).Mean(), c.RequestLatency(egp.PriorityCK).Mean())
}
