package main

import "repro/internal/quantum"

// driveQuantum swaps two Werner pairs of fidelity 0.7 on each pair-state
// backend: the exact density-matrix Bell measurement the end-to-end workload
// runs at every repeater, and the Bell-diagonal closed form.
func driveQuantum() (nsPerSwapDense, nsPerSwapBellDiag float64) {
	const fidelity, gate = 0.7, 1.0
	nsPerSwapDense, _ = driveLoop(func() int {
		const n = 16
		for i := 0; i < n; i++ {
			left := quantum.WernerState(quantum.PsiPlus, fidelity)
			right := quantum.WernerState(quantum.PsiPlus, fidelity)
			quantum.SwapVia(left, right, 1, 0, gate, float64(i)/n)
		}
		return n
	})
	nsPerSwapBellDiag, _ = driveLoop(func() int {
		const n = 4096
		for i := 0; i < n; i++ {
			left := quantum.NewBellDiagWerner(quantum.PsiPlus, fidelity)
			right := quantum.NewBellDiagWerner(quantum.PsiPlus, fidelity)
			quantum.SwapBellDiag(left, right, gate, float64(i)/n)
		}
		return n
	})
	return nsPerSwapDense, nsPerSwapBellDiag
}
