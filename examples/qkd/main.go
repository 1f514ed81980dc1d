// QKD: the measure-directly (MD) use case of the paper driven end to end.
// The application requests a stream of measure-directly pairs, both nodes
// measure in shared pseudo-random bases, and the resulting correlated bit
// strings are sifted into raw key material. The example then estimates the
// QBER per basis and the asymptotic BB84-style secret key fraction,
// illustrating why the link layer exposes fidelity (not just throughput) as
// a service parameter (Section 4.2).
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
	cfg := netsim.DefaultConfig(netsim.Chain(2), nv.ScenarioQL2020)
	cfg.Seed = 2026
	nw, err := netsim.NewNetwork(cfg)
	if err != nil {
		panic(err)
	}
	link := nw.Links[0]
	var oks []egp.OKEvent
	nw.OnLinkOK = func(_ *netsim.Link, ok egp.OKEvent) { oks = append(oks, ok) }

	const pairsRequested = 200
	sim.Schedule(nw.Sim, 0, func() {
		nw.Submit(link, "A", egp.CreateRequest{
			NumPairs:    pairsRequested,
			Keep:        false,
			MinFidelity: 0.64,
			Priority:    egp.PriorityMD,
			PurposeID:   443,
			Consecutive: true,
		})
	})
	nw.Run(30 * sim.Second)

	// Collect both nodes' outcomes per pair (keyed by entanglement ID).
	type half struct {
		outcome int
		basis   quantum.BasisLabel
		psiMin  bool
	}
	alice := map[uint16]half{}
	bob := map[uint16]half{}
	for _, ok := range oks {
		h := half{outcome: ok.MeasureOutcome, basis: ok.MeasureBasis, psiMin: ok.HeraldedPsiMinus}
		if ok.Node == "A" {
			alice[ok.EntanglementID] = h
		} else {
			bob[ok.EntanglementID] = h
		}
	}

	// Sift: keep pairs where both outcomes exist and bases match; apply the
	// classical |Ψ−⟩ correction and flip Bob's Z outcomes so "equal bits"
	// becomes the key convention for the |Ψ+⟩ target.
	var keyBitsA, keyBitsB []int
	errorsByBasis := map[quantum.BasisLabel][2]int{}
	for id, a := range alice {
		b, ok := bob[id]
		if !ok || a.basis != b.basis {
			continue
		}
		bitA := a.outcome
		if a.psiMin && a.basis != quantum.BasisZ {
			bitA = 1 - bitA
		}
		bitB := b.outcome
		if a.basis == quantum.BasisZ {
			// Ψ+ is anti-correlated in Z: flip Bob's bit so matching bits
			// mean no error.
			bitB = 1 - bitB
		}
		keyBitsA = append(keyBitsA, bitA)
		keyBitsB = append(keyBitsB, bitB)
		counts := errorsByBasis[a.basis]
		counts[1]++
		if bitA != bitB {
			counts[0]++
		}
		errorsByBasis[a.basis] = counts
	}

	fmt.Printf("pairs delivered:   %d (requested %d)\n", link.Account.Pairs(egp.PriorityMD), pairsRequested)
	fmt.Printf("sifted key length: %d bits\n", len(keyBitsA))
	totalErr, totalBits := 0, 0
	for _, basis := range []quantum.BasisLabel{quantum.BasisZ, quantum.BasisX, quantum.BasisY} {
		c := errorsByBasis[basis]
		if c[1] == 0 {
			continue
		}
		qber := float64(c[0]) / float64(c[1])
		fmt.Printf("  QBER %s basis:    %.3f (%d/%d)\n", basis, qber, c[0], c[1])
		totalErr += c[0]
		totalBits += c[1]
	}
	if totalBits == 0 {
		fmt.Println("no sifted bits — run longer")
		return
	}
	qber := float64(totalErr) / float64(totalBits)
	rate := secretKeyFraction(qber)
	fmt.Printf("overall QBER:      %.3f\n", qber)
	fmt.Printf("secret fraction:   %.3f (asymptotic BB84 bound, 0 when QBER > 11%%)\n", rate)
	fmt.Printf("key throughput:    %.2f raw sifted bits/s, %.2f secret bits/s\n",
		float64(len(keyBitsA))/link.Account.DurationSeconds(),
		rate*float64(len(keyBitsA))/link.Account.DurationSeconds())
	fmt.Printf("\nThe link delivered %.1f pairs/s; a lower requested fidelity would raise that rate\n"+
		"but push the QBER toward the 11%% threshold where no key can be distilled (Sec. 4.2).\n",
		link.Account.Throughput(egp.PriorityMD))
}

// secretKeyFraction returns the asymptotic BB84 secret key fraction
// 1 − 2·h(Q) for QBER Q, clamped at zero.
func secretKeyFraction(q float64) float64 {
	if q <= 0 {
		return 1
	}
	if q >= 0.5 {
		return 0
	}
	h := -q*math.Log2(q) - (1-q)*math.Log2(1-q)
	r := 1 - 2*h
	if r < 0 {
		return 0
	}
	return r
}
