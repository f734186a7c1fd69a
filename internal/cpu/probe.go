package cpu

import "desmask/internal/isa"

// CycleInfo describes one committed clock cycle. U points at the micro-op
// that occupied EX this cycle, or is nil for a bubble (stall or flush slot).
type CycleInfo struct {
	Cycle uint64
	U     *isa.UOp
}

// Probe observes the pipeline once per committed cycle, after the energy
// meter has committed that cycle, so a probe reads the cycle's energy from
// the meter (energy.Probe.LastPJ).
//
// Probes are observation-only: they must not mutate architectural state
// (registers, memory, PC) or influence simulation outcomes. CycleInfo.U
// points into the pipeline's micro-op table; treat it as read-only. Probes
// fire synchronously in attachment order.
type Probe interface {
	OnCycle(CycleInfo)
}

// ProbeFunc adapts a function to Probe.
type ProbeFunc func(CycleInfo)

// OnCycle implements Probe.
func (f ProbeFunc) OnCycle(c CycleInfo) { f(c) }
