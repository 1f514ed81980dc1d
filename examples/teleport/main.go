// Teleport: the send-qubit (SQ) use case. Node A prepares a data qubit in an
// arbitrary state, requests one create-and-keep entangled pair from the link
// layer, and teleports the data qubit to node B by consuming the pair: a
// local Bell measurement at A plus two classical bits instructing B's
// correction (Figure 1a of the paper). The example reports the fidelity of
// the state that arrives at B, which is bounded by the fidelity of the
// entangled link the EGP delivered.
package main

import (
	"fmt"
	"math"

	"repro/internal/egp"
	"repro/internal/netsim"
	"repro/internal/nv"
	"repro/internal/quantum"
	"repro/internal/sim"
)

func main() {
	cfg := netsim.DefaultConfig(netsim.Chain(2), nv.ScenarioLab)
	cfg.Seed = 77
	cfg.HoldPairs = true // keep the delivered pair in memory so we can consume it
	// The teleportation circuit below needs the full density matrix, so pin
	// the dense backend even when $REPRO_BACKEND selects the fast path.
	cfg.Backend = quantum.BackendDense
	nw, err := netsim.NewNetwork(cfg)
	if err != nil {
		panic(err)
	}
	link := nw.Links[0]
	delivered := 0
	nw.OnLinkOK = func(*netsim.Link, egp.OKEvent) { delivered++ }

	sim.Schedule(nw.Sim, 0, func() {
		nw.Submit(link, "A", egp.CreateRequest{
			NumPairs:    1,
			Keep:        true,
			MinFidelity: 0.7,
			Priority:    egp.PriorityCK,
			PurposeID:   9,
		})
	})
	nw.Run(3 * sim.Second)

	if delivered == 0 {
		fmt.Println("no entangled pair was delivered — run longer")
		return
	}
	// Fetch the stored pair from node A's device.
	var pair *nv.EntangledPair
	for _, p := range link.DeviceA.OccupiedPairs() {
		pair = p
	}
	if pair == nil {
		fmt.Println("pair not found in memory")
		return
	}
	fmt.Printf("entangled link delivered with fidelity %.3f (heralded as %v)\n", pair.Fidelity(), pair.HeraldedAs)

	// The data qubit |ψ⟩ = cos(θ/2)|0⟩ + e^{iφ} sin(θ/2)|1⟩ to send.
	theta, phi := math.Pi/3, math.Pi/5
	dataKet := quantum.Ket{
		complex(math.Cos(theta/2), 0),
		complex(math.Cos(phi)*math.Sin(theta/2), math.Sin(phi)*math.Sin(theta/2)),
	}
	data := quantum.NewStateFromKet(dataKet)

	// Joint system: data qubit (0), A's half of the pair (1), B's half (2).
	// The teleportation circuit needs the full density matrix, so this
	// example runs on the (default) dense pair backend.
	joint := data.Tensor(pair.State.Dense())

	// Teleportation circuit at A: CNOT(data→A), H(data), then measure both.
	joint.ApplyUnitary(quantum.CNOT(), 0, 1)
	joint.ApplyUnitary(quantum.Hadamard(), 0)
	rng := link.Eng.RNG()
	m0 := measureQubit(joint, 0, rng.Float64())
	m1 := measureQubit(joint, 1, rng.Float64())
	fmt.Printf("Bell measurement at A: m0=%d m1=%d (two classical bits sent to B)\n", m0, m1)

	// Corrections at B. The link pair is |Ψ+⟩ = (|01⟩+|10⟩)/√2 rather than
	// |Φ+⟩, which contributes an extra X correction.
	if m1 == 0 {
		joint.ApplyUnitary(quantum.PauliX(), 2)
	}
	if m0 == 1 {
		joint.ApplyUnitary(quantum.PauliZ(), 2)
	}

	received := joint.PartialTrace(0, 1)
	fidelity := received.Fidelity(dataKet)
	fmt.Printf("state received at B has fidelity %.3f with the original data qubit\n", fidelity)
	fmt.Printf("(bounded by the link fidelity %.3f — a perfect link would teleport perfectly)\n",
		link.Account.Fidelity(egp.PriorityCK).Mean())
}

// measureQubit measures one qubit of the state in the computational basis,
// collapsing it, and returns the outcome. u is a uniform random sample.
func measureQubit(s *quantum.State, qubit int, u float64) int {
	p0 := s.Probability(quantum.ProjectorZ(0), qubit)
	if u < p0 {
		s.Collapse(quantum.ProjectorZ(0), qubit)
		return 0
	}
	s.Collapse(quantum.ProjectorZ(1), qubit)
	return 1
}
