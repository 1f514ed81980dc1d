// Package quantum implements a small dense density-matrix simulator for the
// few-qubit states tracked by the link layer reproduction.
//
// The paper's physical model (Appendix D) only ever manipulates the joint
// state of a handful of qubits per entanglement attempt: two electron
// (communication) spins, the two travelling photon qubits encoded in
// presence/absence of a photon, and at most one carbon (memory) spin per
// node. A dense complex128 density-matrix representation up to ~6 qubits is
// therefore ample, and lets us implement the exact Kraus operators and POVM
// elements derived in the appendix rather than approximating them.
//
// Conventions: qubit 0 is the most significant bit of the computational
// basis index, matching the tensor-product ordering |q0⟩⊗|q1⟩⊗…
package quantum

import (
	"fmt"
	"math"
	"math/cmplx"
)

// MaxQubits bounds the size of states this package will construct. Dense
// matrices grow as 4^n, so this is a safety rail rather than a hard physical
// limit.
const MaxQubits = 8

// Ket is a pure state vector of dimension 2^n.
type Ket []complex128

// Matrix is a dense, square complex matrix stored row-major.
type Matrix struct {
	N    int // dimension
	Data []complex128
}

// NewMatrix allocates an n×n zero matrix.
func NewMatrix(n int) Matrix {
	return Matrix{N: n, Data: make([]complex128, n*n)}
}

// At returns element (i, j).
func (m Matrix) At(i, j int) complex128 { return m.Data[i*m.N+j] }

// Set assigns element (i, j).
func (m Matrix) Set(i, j int, v complex128) { m.Data[i*m.N+j] = v }

// Copy returns a deep copy of the matrix.
func (m Matrix) Copy() Matrix {
	out := NewMatrix(m.N)
	copy(out.Data, m.Data)
	return out
}

// Add returns m + other.
func (m Matrix) Add(other Matrix) Matrix {
	if m.N != other.N {
		panic("quantum: dimension mismatch in Add")
	}
	out := NewMatrix(m.N)
	for i := range m.Data {
		out.Data[i] = m.Data[i] + other.Data[i]
	}
	return out
}

// Scale returns c·m.
func (m Matrix) Scale(c complex128) Matrix {
	out := NewMatrix(m.N)
	for i := range m.Data {
		out.Data[i] = c * m.Data[i]
	}
	return out
}

// Mul returns the matrix product m·other.
func (m Matrix) Mul(other Matrix) Matrix {
	if m.N != other.N {
		panic("quantum: dimension mismatch in Mul")
	}
	n := m.N
	out := NewMatrix(n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			a := m.Data[i*n+k]
			if a == 0 {
				continue
			}
			row := other.Data[k*n:]
			outRow := out.Data[i*n:]
			for j := 0; j < n; j++ {
				outRow[j] += a * row[j]
			}
		}
	}
	return out
}

// Dagger returns the conjugate transpose of m.
func (m Matrix) Dagger() Matrix {
	n := m.N
	out := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*n+i] = cmplx.Conj(m.Data[i*n+j])
		}
	}
	return out
}

// Trace returns the trace of m.
func (m Matrix) Trace() complex128 {
	var t complex128
	for i := 0; i < m.N; i++ {
		t += m.Data[i*m.N+i]
	}
	return t
}

// Kron returns the Kronecker (tensor) product m ⊗ other.
func (m Matrix) Kron(other Matrix) Matrix {
	n := m.N * other.N
	out := NewMatrix(n)
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			a := m.Data[i*m.N+j]
			if a == 0 {
				continue
			}
			for k := 0; k < other.N; k++ {
				for l := 0; l < other.N; l++ {
					out.Data[(i*other.N+k)*n+(j*other.N+l)] = a * other.Data[k*other.N+l]
				}
			}
		}
	}
	return out
}

// Identity returns the n×n identity matrix.
func Identity(n int) Matrix {
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Equalish reports whether the two matrices are equal element-wise within tol.
func (m Matrix) Equalish(other Matrix, tol float64) bool {
	if m.N != other.N {
		return false
	}
	for i := range m.Data {
		if cmplx.Abs(m.Data[i]-other.Data[i]) > tol {
			return false
		}
	}
	return true
}

// State is a density matrix over NumQubits qubits.
//
// Operator application (ApplyUnitary, ApplyKraus, Collapse, ExpectationReal)
// runs in place over a set of per-state scratch buffers, so the steady-state
// hot path — millions of gate applications per simulated second across the
// stack — performs no heap allocation after the first operation on a state.
// The arithmetic (loop order, zero-skipping, accumulation order) is exactly
// the out-of-place formulation it replaced, so results are bit-identical.
type State struct {
	numQubits int
	rho       Matrix
	// buf holds the reusable work buffers; nil until the first operator
	// application, and never shared between states (Copy starts fresh).
	buf *scratch
}

// scratch is the set of working buffers for in-place operator application on
// one state: the expanded full-space operator, its conjugate transpose, the
// two matrix-product intermediates, a Kraus accumulator, and the per-basis
// index tables of the current expansion.
type scratch struct {
	full Matrix // operator embedded in the full 2^n space
	dag  Matrix // conjugate transpose of full
	t1   Matrix // full·ρ
	t2   Matrix // (full·ρ)·full†
	acc  Matrix // Σ_K KρK† accumulator for Kraus maps
	sub  []int  // subIndex(i) for every full-space basis index i
	rest []int  // maskOut(i) for every full-space basis index i
}

// ensureScratch returns the state's scratch buffers, allocating them on
// first use.
func (s *State) ensureScratch() *scratch {
	if s.buf == nil {
		dim := s.Dim()
		s.buf = &scratch{
			full: NewMatrix(dim),
			dag:  NewMatrix(dim),
			t1:   NewMatrix(dim),
			t2:   NewMatrix(dim),
			acc:  NewMatrix(dim),
			sub:  make([]int, dim),
			rest: make([]int, dim),
		}
	}
	return s.buf
}

// zeroData clears a scratch matrix before it is accumulated into.
func zeroData(m Matrix) {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// mulInto computes dst = a·b with the same loop structure (and therefore the
// same floating-point accumulation order and zero-skipping) as Matrix.Mul.
// dst must be pre-zeroed and must not alias a or b.
func mulInto(dst, a, b Matrix) {
	n := a.N
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			v := a.Data[i*n+k]
			if v == 0 {
				continue
			}
			row := b.Data[k*n:]
			outRow := dst.Data[i*n:]
			for j := 0; j < n; j++ {
				outRow[j] += v * row[j]
			}
		}
	}
}

// daggerInto writes the conjugate transpose of m into dst.
func daggerInto(dst, m Matrix) {
	n := m.N
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dst.Data[j*n+i] = cmplx.Conj(m.Data[i*n+j])
		}
	}
}

// sandwichInto computes b.t2 = full·ρ·full† through the scratch buffers.
func (s *State) sandwichInto(b *scratch) {
	zeroData(b.t1)
	mulInto(b.t1, b.full, s.rho)
	daggerInto(b.dag, b.full)
	zeroData(b.t2)
	mulInto(b.t2, b.t1, b.dag)
}

// NewState builds the pure all-|0⟩ state on n qubits.
func NewState(n int) *State {
	if n < 1 || n > MaxQubits {
		panic(fmt.Sprintf("quantum: unsupported qubit count %d", n))
	}
	dim := 1 << n
	rho := NewMatrix(dim)
	rho.Set(0, 0, 1)
	return &State{numQubits: n, rho: rho}
}

// NewStateFromKet builds a density matrix |ψ⟩⟨ψ| from a (normalised) ket. The
// ket length must be a power of two.
func NewStateFromKet(psi Ket) *State {
	dim := len(psi)
	n := 0
	for 1<<n < dim {
		n++
	}
	if 1<<n != dim || n < 1 || n > MaxQubits {
		panic(fmt.Sprintf("quantum: invalid ket dimension %d", dim))
	}
	norm := 0.0
	for _, a := range psi {
		norm += real(a)*real(a) + imag(a)*imag(a)
	}
	if math.Abs(norm-1) > 1e-9 {
		s := complex(1/math.Sqrt(norm), 0)
		scaled := make(Ket, dim)
		for i, a := range psi {
			scaled[i] = a * s
		}
		psi = scaled
	}
	rho := NewMatrix(dim)
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			rho.Set(i, j, psi[i]*cmplx.Conj(psi[j]))
		}
	}
	return &State{numQubits: n, rho: rho}
}

// NewStateFromDensity wraps an existing density matrix. The matrix is used
// directly (not copied); its dimension must be a power of two.
func NewStateFromDensity(rho Matrix) *State {
	n := 0
	for 1<<n < rho.N {
		n++
	}
	if 1<<n != rho.N || n < 1 || n > MaxQubits {
		panic(fmt.Sprintf("quantum: invalid density dimension %d", rho.N))
	}
	return &State{numQubits: n, rho: rho}
}

// NumQubits returns the number of qubits in the state.
func (s *State) NumQubits() int { return s.numQubits }

// Dim returns the Hilbert space dimension 2^n.
func (s *State) Dim() int { return 1 << s.numQubits }

// Density returns a copy of the underlying density matrix.
func (s *State) Density() Matrix { return s.rho.Copy() }

// Copy returns a deep copy of the state.
func (s *State) Copy() *State {
	return &State{numQubits: s.numQubits, rho: s.rho.Copy()}
}

// TraceReal returns the (real part of the) trace; it should be 1 for a
// normalised state.
func (s *State) TraceReal() float64 { return real(s.rho.Trace()) }

// Tensor returns the joint state s ⊗ other.
func (s *State) Tensor(other *State) *State {
	n := s.numQubits + other.numQubits
	if n > MaxQubits {
		panic("quantum: tensor product exceeds MaxQubits")
	}
	return &State{numQubits: n, rho: s.rho.Kron(other.rho)}
}

// expandInto embeds a k-qubit operator acting on the listed qubits into the
// full 2^n dimensional space, writing into the scratch buffers' full matrix.
func (s *State) expandInto(b *scratch, op Matrix, qubits []int) {
	k := len(qubits)
	if op.N != 1<<k {
		panic(fmt.Sprintf("quantum: operator dimension %d does not match %d qubits", op.N, k))
	}
	var seen [MaxQubits]bool
	for _, q := range qubits {
		if q < 0 || q >= s.numQubits {
			panic(fmt.Sprintf("quantum: qubit index %d out of range", q))
		}
		if seen[q] {
			panic(fmt.Sprintf("quantum: duplicate qubit index %d", q))
		}
		seen[q] = true
	}
	n := s.numQubits
	dim := 1 << n
	// Tabulate the sub-space index and the non-target remainder of every
	// basis index once, instead of recomputing them in the inner loop.
	for i := 0; i < dim; i++ {
		b.sub[i] = subIndex(i, qubits, n)
		b.rest[i] = maskOut(i, qubits, n)
	}
	zeroData(b.full)
	// For every pair of full-space basis states (i, j), the matrix element is
	// op[sub(i), sub(j)] when the non-target qubits agree, else 0.
	for i := 0; i < dim; i++ {
		si := b.sub[i]
		rest := b.rest[i]
		for j := 0; j < dim; j++ {
			if b.rest[j] != rest {
				continue
			}
			b.full.Data[i*dim+j] = op.Data[si*op.N+b.sub[j]]
		}
	}
}

// subIndex extracts the bits of the listed qubits of basis index i into a
// compact sub-index in qubit-list order.
func subIndex(i int, qubits []int, n int) int {
	out := 0
	for _, q := range qubits {
		bit := (i >> (n - 1 - q)) & 1
		out = out<<1 | bit
	}
	return out
}

// maskOut zeroes the bits of the listed qubits of basis index i.
func maskOut(i int, qubits []int, n int) int {
	for _, q := range qubits {
		i &^= 1 << (n - 1 - q)
	}
	return i
}

// ApplyUnitary applies a unitary acting on the listed qubits, in place:
// ρ → UρU†.
func (s *State) ApplyUnitary(u Matrix, qubits ...int) {
	b := s.ensureScratch()
	s.expandInto(b, u, qubits)
	zeroData(b.t1)
	mulInto(b.t1, b.full, s.rho)
	daggerInto(b.dag, b.full)
	// ρ is fully consumed by the first product, so it doubles as the output
	// buffer of the second.
	zeroData(s.rho)
	mulInto(s.rho, b.t1, b.dag)
}

// ApplyKraus applies a completely positive map given by Kraus operators
// acting on the listed qubits, in place: ρ → Σ K ρ K†.
func (s *State) ApplyKraus(kraus []Matrix, qubits ...int) {
	b := s.ensureScratch()
	zeroData(b.acc)
	for _, k := range kraus {
		s.expandInto(b, k, qubits)
		s.sandwichInto(b)
		for i := range b.acc.Data {
			b.acc.Data[i] += b.t2.Data[i]
		}
	}
	copy(s.rho.Data, b.acc.Data)
}

// ExpectationReal returns Tr(op·ρ) (real part) for an operator on the listed
// qubits. Only the diagonal of the product is formed; each diagonal entry
// accumulates in the same order as a full row-times-column product would,
// so the result is bit-identical to real((op·ρ).Trace()).
func (s *State) ExpectationReal(op Matrix, qubits ...int) float64 {
	b := s.ensureScratch()
	s.expandInto(b, op, qubits)
	n := s.Dim()
	var t complex128
	for i := 0; i < n; i++ {
		var d complex128
		row := b.full.Data[i*n:]
		for k := 0; k < n; k++ {
			a := row[k]
			if a == 0 {
				continue
			}
			d += a * s.rho.Data[k*n+i]
		}
		t += d
	}
	return real(t)
}

// PartialTrace traces out the listed qubits and returns the reduced state on
// the remaining qubits (ordered as before, with the traced qubits removed).
func (s *State) PartialTrace(traceOut ...int) *State {
	drop := map[int]bool{}
	for _, q := range traceOut {
		if q < 0 || q >= s.numQubits {
			panic(fmt.Sprintf("quantum: qubit index %d out of range", q))
		}
		drop[q] = true
	}
	var keep []int
	for q := 0; q < s.numQubits; q++ {
		if !drop[q] {
			keep = append(keep, q)
		}
	}
	if len(keep) == 0 {
		panic("quantum: cannot trace out all qubits")
	}
	n := s.numQubits
	keepDim := 1 << len(keep)
	dropList := traceOutSorted(drop)
	dropDim := 1 << len(dropList)
	out := NewMatrix(keepDim)
	for ki := 0; ki < keepDim; ki++ {
		for kj := 0; kj < keepDim; kj++ {
			var sum complex128
			for d := 0; d < dropDim; d++ {
				i := composeIndex(ki, keep, d, dropList, n)
				j := composeIndex(kj, keep, d, dropList, n)
				sum += s.rho.Data[i*s.Dim()+j]
			}
			out.Set(ki, kj, sum)
		}
	}
	return &State{numQubits: len(keep), rho: out}
}

func traceOutSorted(drop map[int]bool) []int {
	var out []int
	for q := 0; q < MaxQubits; q++ {
		if drop[q] {
			out = append(out, q)
		}
	}
	return out
}

// composeIndex rebuilds a full basis index from sub-indices over the keep and
// drop qubit lists.
func composeIndex(keepIdx int, keep []int, dropIdx int, dropList []int, n int) int {
	i := 0
	for bit, q := range keep {
		if keepIdx>>(len(keep)-1-bit)&1 == 1 {
			i |= 1 << (n - 1 - q)
		}
	}
	for bit, q := range dropList {
		if dropIdx>>(len(dropList)-1-bit)&1 == 1 {
			i |= 1 << (n - 1 - q)
		}
	}
	return i
}

// Probability returns the probability of obtaining the POVM element e (an
// operator on the listed qubits): Tr(E·ρ).
func (s *State) Probability(e Matrix, qubits ...int) float64 {
	p := s.ExpectationReal(e, qubits...)
	switch {
	case p < 0 && p > -1e-12:
		return 0
	case p > 1 && p < 1+1e-12:
		return 1
	default:
		return p
	}
}

// Collapse applies a Kraus operator for an observed measurement outcome and
// renormalises. It returns the probability of the outcome; if the
// probability is numerically zero the state is left unchanged and 0 is
// returned.
func (s *State) Collapse(kraus Matrix, qubits ...int) float64 {
	b := s.ensureScratch()
	s.expandInto(b, kraus, qubits)
	s.sandwichInto(b)
	p := real(b.t2.Trace())
	if p <= 1e-15 {
		return 0
	}
	inv := complex(1/p, 0)
	for i := range b.t2.Data {
		s.rho.Data[i] = b.t2.Data[i] * inv
	}
	return p
}

// Purity returns Tr(ρ²), 1 for pure states.
func (s *State) Purity() float64 {
	return real(s.rho.Mul(s.rho).Trace())
}
