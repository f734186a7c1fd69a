package energy

// Probe accumulates the committed cycles of one VecMeter lane: the last
// cycle's energy, the run total and the peak cycle. The pipeline
// (internal/gang) commits every metered cycle before it calls any cpu.Probe,
// so probes read the cycle just committed through Last or LastPJ. The zero
// value is an empty accumulator.
type Probe struct {
	last   CycleEnergy
	total  CycleEnergy
	peak   float64
	cycles uint64
}

// Reset clears the accumulator for a fresh run.
func (p *Probe) Reset() { *p = Probe{} }

// Commit folds the lane's most recently metered cycle of v into the
// accumulator.
func (p *Probe) Commit(v *VecMeter, lane int) {
	v.EndCycleInto(lane, &p.last)
	p.total.AddFrom(&p.last)
	if p.last.Total > p.peak {
		p.peak = p.last.Total
	}
	p.cycles++
}

// Last returns the energy of the most recently committed cycle.
func (p *Probe) Last() CycleEnergy { return p.last }

// LastPJ returns the total energy of the most recently committed cycle
// without copying the per-component breakdown.
func (p *Probe) LastPJ() float64 { return p.last.Total }

// Total returns the accumulated energy of the run so far.
func (p *Probe) Total() CycleEnergy { return p.total }

// TotalPJ returns the accumulated total energy in picojoules.
func (p *Probe) TotalPJ() float64 { return p.total.Total }

// PeakPJ returns the largest single-cycle energy observed.
func (p *Probe) PeakPJ() float64 { return p.peak }

// Cycles returns the number of committed cycles observed.
func (p *Probe) Cycles() uint64 { return p.cycles }
