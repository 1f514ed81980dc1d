package nv

import (
	"errors"
	"fmt"

	"repro/internal/quantum"
	"repro/internal/sim"
)

// QubitKind distinguishes the optically active communication qubit
// (electron spin) from storage qubits (carbon-13 nuclear spins).
type QubitKind int

// Qubit kinds on the NV platform.
const (
	CommunicationQubit QubitKind = iota
	MemoryQubit
)

// String renders the kind.
func (k QubitKind) String() string {
	if k == CommunicationQubit {
		return "communication"
	}
	return "memory"
}

// QubitID addresses a physical qubit inside one device: 0 is the
// communication qubit, 1..MemoryQubits are carbon memory qubits.
type QubitID int

// CommQubitID is the identifier of the single communication qubit.
const CommQubitID QubitID = 0

// Errors returned by device operations.
var (
	ErrQubitBusy     = errors.New("nv: qubit already holds entanglement")
	ErrQubitFree     = errors.New("nv: qubit does not hold entanglement")
	ErrNoSuchQubit   = errors.New("nv: no such qubit")
	ErrCommBusy      = errors.New("nv: communication qubit busy")
	ErrMoveNeedsComm = errors.New("nv: move-to-memory requires the pair to be in the communication qubit")
)

// PairSide says which end of an entangled pair a device holds.
type PairSide int

// Pair sides; SideA is qubit 0 of the joint state, SideB qubit 1.
const (
	SideA PairSide = iota
	SideB
)

// EntangledPair is the shared representation of one entangled link: the
// joint two-qubit pair state — dense density matrix or Bell-diagonal fast
// path, behind the quantum.PairState interface — plus per-side bookkeeping
// of where the qubit is stored and when decoherence was last applied.
type EntangledPair struct {
	State      quantum.PairState // qubit 0 = side A, qubit 1 = side B
	CreatedAt  sim.Time
	HeraldedAs quantum.BellState // the Bell state announced by the midpoint (after any correction)
	// DeliveredFidelity caches the fidelity of the pair at the moment the
	// first node delivered it to its higher layer, before any destructive
	// measurement collapsed the joint state. Zero means "not yet recorded".
	DeliveredFidelity float64

	kind       [2]QubitKind
	qubit      [2]QubitID
	lastUpdate [2]sim.Time
}

// NewEntangledPair wraps a freshly heralded two-qubit state. Both sides
// start in their communication qubits.
func NewEntangledPair(state quantum.PairState, heralded quantum.BellState, now sim.Time) *EntangledPair {
	if d := state.Dense(); d != nil && d.NumQubits() != 2 {
		panic("nv: entangled pair must be a two-qubit state")
	}
	p := &EntangledPair{State: state, CreatedAt: now, HeraldedAs: heralded}
	for s := 0; s < 2; s++ {
		p.kind[s] = CommunicationQubit
		p.qubit[s] = CommQubitID
		p.lastUpdate[s] = now
	}
	return p
}

// Kind returns which kind of qubit currently stores the given side.
func (p *EntangledPair) Kind(side PairSide) QubitKind { return p.kind[side] }

// Qubit returns the physical qubit ID storing the given side.
func (p *EntangledPair) Qubit(side PairSide) QubitID { return p.qubit[side] }

// Fidelity returns the current fidelity with the heralded Bell state.
func (p *EntangledPair) Fidelity() float64 { return p.State.BellFidelity(p.HeraldedAs) }

// NewSwappedPair builds the end-to-end pair produced by an entanglement
// swap: the post-measurement state of the two far qubits (left's far qubit is
// side A, right's far qubit side B), with each side inheriting the storage
// bookkeeping — qubit kind, physical qubit and decoherence clock — of the
// input pair it came from. The swapping node's callers release the two
// consumed middle qubits and Rebind the far devices onto the returned pair.
func NewSwappedPair(state quantum.PairState, heralded quantum.BellState, left *EntangledPair, leftFar PairSide, right *EntangledPair, rightFar PairSide, now sim.Time) *EntangledPair {
	if d := state.Dense(); d != nil && d.NumQubits() != 2 {
		panic("nv: swapped pair must be a two-qubit state")
	}
	p := &EntangledPair{State: state, CreatedAt: now, HeraldedAs: heralded}
	p.kind[SideA] = left.kind[leftFar]
	p.qubit[SideA] = left.qubit[leftFar]
	p.lastUpdate[SideA] = left.lastUpdate[leftFar]
	p.kind[SideB] = right.kind[rightFar]
	p.qubit[SideB] = right.qubit[rightFar]
	p.lastUpdate[SideB] = right.lastUpdate[rightFar]
	return p
}

// Device models one NV node's quantum processing unit: a single
// communication qubit plus a small number of carbon memory qubits, with the
// noisy gate set and decoherence model of the paper's appendix.
type Device struct {
	Name     string
	Gates    GateSet
	Coupling CarbonCoupling

	memorySlots int
	// occupied maps qubit IDs to the pair stored there (nil when free).
	occupied map[QubitID]*EntangledPair
	// side maps qubit IDs to which side of the pair this device holds.
	side map[QubitID]PairSide

	// uBuf is the reusable readout-draw buffer of Measure: drawing through
	// the batch interface keeps the uniform stream identical to
	// one-at-a-time draws while avoiding a per-readout interface call and
	// any buffer escape (mirroring photonics.LinkSampler.Sample).
	uBuf [1]float64

	// pdAlpha/pdCached memoise Coupling.DephasingPerAttempt for the most
	// recent bright-state population: ApplyAttemptDephasing runs once per
	// entanglement attempt and α changes only when the link retargets a
	// different fidelity, so the exp() inside Eq. (25) is almost always
	// redundant. pdKraus is the dephasing channel of pdCached, built with it
	// so a dense pair's per-attempt dephasing allocates nothing.
	pdAlpha  float64
	pdCached float64
	pdKraus  []quantum.Matrix
	pdValid  bool
}

// NewDevice creates a device with the given number of memory qubits.
func NewDevice(name string, gates GateSet, coupling CarbonCoupling, memoryQubits int) *Device {
	if memoryQubits < 0 {
		panic("nv: negative memory qubit count")
	}
	return &Device{
		Name:        name,
		Gates:       gates,
		Coupling:    coupling,
		memorySlots: memoryQubits,
		occupied:    make(map[QubitID]*EntangledPair),
		side:        make(map[QubitID]PairSide),
	}
}

// MemoryQubits returns the number of carbon memory qubits.
func (d *Device) MemoryQubits() int { return d.memorySlots }

// CommFree reports whether the communication qubit is available.
func (d *Device) CommFree() bool { return d.occupied[CommQubitID] == nil }

// FreeMemoryQubit returns a free memory qubit ID, or false when all are
// occupied.
func (d *Device) FreeMemoryQubit() (QubitID, bool) {
	for i := 1; i <= d.memorySlots; i++ {
		if d.occupied[QubitID(i)] == nil {
			return QubitID(i), true
		}
	}
	return 0, false
}

// FreeMemoryCount returns how many memory qubits are currently unoccupied.
func (d *Device) FreeMemoryCount() int {
	n := 0
	for i := 1; i <= d.memorySlots; i++ {
		if d.occupied[QubitID(i)] == nil {
			n++
		}
	}
	return n
}

// PairAt returns the pair stored in the given qubit, or nil.
func (d *Device) PairAt(q QubitID) *EntangledPair { return d.occupied[q] }

// validQubit checks that q addresses an existing qubit.
func (d *Device) validQubit(q QubitID) error {
	if q == CommQubitID {
		return nil
	}
	if q >= 1 && int(q) <= d.memorySlots {
		return nil
	}
	return fmt.Errorf("%w: %d on %s", ErrNoSuchQubit, q, d.Name)
}

// StorePair records that this device holds the given side of a freshly
// generated pair in its communication qubit.
func (d *Device) StorePair(pair *EntangledPair, side PairSide) error {
	if !d.CommFree() {
		return ErrCommBusy
	}
	d.occupied[CommQubitID] = pair
	d.side[CommQubitID] = side
	pair.kind[side] = CommunicationQubit
	pair.qubit[side] = CommQubitID
	return nil
}

// Release frees the qubit holding the pair on this device (after the pair
// was measured, expired or consumed by a higher layer).
func (d *Device) Release(pair *EntangledPair) {
	for q, p := range d.occupied {
		if p == pair {
			delete(d.occupied, q)
			delete(d.side, q)
			return
		}
	}
}

// Rebind repoints the qubit slot holding old at a replacement pair, keeping
// the physical qubit occupied: after an entanglement swap elsewhere in the
// network, the qubit this device stores is unchanged physically but now
// belongs to the composed end-to-end pair. It returns ErrQubitFree when this
// device does not hold old.
func (d *Device) Rebind(old, replacement *EntangledPair, side PairSide) error {
	for q, p := range d.occupied {
		if p == old {
			d.occupied[q] = replacement
			d.side[q] = side
			return nil
		}
	}
	return ErrQubitFree
}

// ReleaseAll frees every qubit (used on expiry of whole requests).
func (d *Device) ReleaseAll() {
	d.occupied = make(map[QubitID]*EntangledPair)
	d.side = make(map[QubitID]PairSide)
}

// OccupiedPairs returns every pair currently stored on this device.
func (d *Device) OccupiedPairs() []*EntangledPair {
	var out []*EntangledPair
	for i := 0; i <= d.memorySlots; i++ {
		if p := d.occupied[QubitID(i)]; p != nil {
			out = append(out, p)
		}
	}
	return out
}

// memoryParams returns the T1/T2 parameters of a qubit kind.
func (d *Device) memoryParams(kind QubitKind) quantum.T1T2Params {
	if kind == CommunicationQubit {
		return d.Gates.ElectronT1T2()
	}
	return d.Gates.CarbonT1T2()
}

// ApplyDecoherence advances the decoherence clock of this device's side of
// the pair to now, applying the appropriate T1/T2 noise for where the qubit
// is stored.
func (d *Device) ApplyDecoherence(pair *EntangledPair, side PairSide, now sim.Time) {
	last := pair.lastUpdate[side]
	if now <= last {
		return
	}
	elapsed := now.Sub(last).Seconds()
	pair.State.ApplyMemoryNoise(int(side), elapsed, d.memoryParams(pair.kind[side]))
	pair.lastUpdate[side] = now
}

// ApplyAttemptDephasing applies the nuclear-spin dephasing caused by one
// entanglement generation attempt with bright-state population alpha to
// every pair stored in a carbon memory qubit of this device (Appendix
// D.4.1). It runs once per attempt, so it scans the (few) memory slots
// directly instead of iterating the occupied map and only evaluates the
// per-attempt probability once a stored pair is actually found. It reports
// whether it dephased any pair.
func (d *Device) ApplyAttemptDephasing(alpha float64) (acted bool) {
	pd := -1.0
	for i := 1; i <= d.memorySlots; i++ {
		q := QubitID(i)
		pair := d.occupied[q]
		if pair == nil {
			continue
		}
		side := d.side[q]
		if pair.kind[side] != MemoryQubit {
			continue
		}
		if pd < 0 {
			pd = d.dephasingPerAttempt(alpha)
			if pd <= 0 {
				return false
			}
		}
		// The memoised operators are the ones the dense ApplyDephasing
		// would build, so the state is bit-identical.
		if st := pair.State.Dense(); st != nil {
			st.ApplyKraus(d.pdKraus, int(side))
		} else {
			pair.State.ApplyDephasing(int(side), pd)
		}
		acted = true
	}
	return acted
}

// dephasingPerAttempt memoises Eq. (25), and its Kraus operators, for the
// current α.
func (d *Device) dephasingPerAttempt(alpha float64) float64 {
	if !d.pdValid || d.pdAlpha != alpha {
		d.pdCached = d.Coupling.DephasingPerAttempt(alpha)
		d.pdAlpha = alpha
		d.pdValid = true
		if d.pdCached > 0 {
			d.pdKraus = quantum.DephasingKraus(d.pdCached)
		}
	}
	return d.pdCached
}

// ApplyCorrection applies the local gate converting the heralded |Ψ−⟩ into
// |Ψ+⟩ (a Z on this device's qubit, Eq. 13) with the single-qubit gate
// noise, and updates the pair's heralded label.
func (d *Device) ApplyCorrection(pair *EntangledPair, side PairSide) {
	pair.State.ApplyPauli(int(side), quantum.OpZ)
	if f := d.Gates.ElectronSingleQubit.Fidelity; f < 1 {
		pair.State.ApplyDephasing(int(side), 1-f)
	}
	pair.HeraldedAs = quantum.PsiPlus
}

// MoveToMemory transfers this device's side of the pair from the
// communication qubit to the given memory qubit, applying the composite
// gate noise and duration of the swap (Appendix D.3.3). The caller is
// responsible for advancing simulated time by Gates.MoveToCarbon.Duration.
func (d *Device) MoveToMemory(pair *EntangledPair, side PairSide, target QubitID, now sim.Time) error {
	if err := d.validQubit(target); err != nil {
		return err
	}
	if target == CommQubitID {
		return fmt.Errorf("nv: move target must be a memory qubit")
	}
	if d.occupied[CommQubitID] != pair || pair.kind[side] != CommunicationQubit {
		return ErrMoveNeedsComm
	}
	if d.occupied[target] != nil {
		return ErrQubitBusy
	}
	// Decohere up to the start of the move. The move itself is performed
	// under dynamical decoupling (Appendix D.2.2), so the electron is
	// protected during the pulse sequence and the only cost is the composite
	// gate fidelity of Table 6 — applying raw T2 decay on top would double
	// count the noise already captured by that fidelity.
	d.ApplyDecoherence(pair, side, now)
	moveEnd := now.Add(d.Gates.MoveToCarbon.Duration)
	if f := d.Gates.MoveToCarbon.Fidelity; f < 1 {
		pair.State.ApplyDephasing(int(side), 1-f)
	}
	pair.lastUpdate[side] = moveEnd

	delete(d.occupied, CommQubitID)
	delete(d.side, CommQubitID)
	d.occupied[target] = pair
	d.side[target] = side
	pair.kind[side] = MemoryQubit
	pair.qubit[side] = target
	return nil
}

// ReadoutResult is the outcome of measuring one side of a pair.
type ReadoutResult struct {
	Outcome int // 0 or 1
	Basis   quantum.BasisLabel
}

// batchRandomSource is the optional fast path of the rng parameter of
// Measure: sources that can hand out several uniforms at once (sim.RNG does)
// let the readout draw land in a persistent buffer instead of returning
// through an interface call per readout.
type batchRandomSource interface {
	Float64Batch(dst []float64)
}

// Measure performs a destructive measurement of this device's side of the
// pair in the given basis, applying decoherence up to now, the basis
// rotation (with single-qubit gate noise) and the asymmetric readout POVM of
// Appendix D.3.4 — all through the pair's backend. The pair is released from
// the device afterwards. The readout consumes exactly one uniform sample,
// drawn through the batch interface when available so the stream matches
// one-at-a-time draws.
func (d *Device) Measure(pair *EntangledPair, side PairSide, basis quantum.BasisLabel, now sim.Time, rng interface{ Float64() float64 }) ReadoutResult {
	d.ApplyDecoherence(pair, side, now)
	u := &d.uBuf
	if batch, ok := rng.(batchRandomSource); ok {
		batch.Float64Batch(u[:])
	} else {
		u[0] = rng.Float64()
	}
	ro := d.Gates.ElectronReadout
	outcome := pair.State.Readout(int(side), basis,
		d.Gates.ElectronSingleQubit.Fidelity, ro.Fidelity0, ro.Fidelity1, u[0])
	d.Release(pair)
	return ReadoutResult{Outcome: outcome, Basis: basis}
}
