package isa

import "fmt"

// PipelineSpec describes the pipeline geometry of a target's core as data:
// the constants that used to live implicitly in internal/cpu's five-stage
// control logic (branch resolution stage, load-use latency, flush depth) plus
// the fill/drain latencies that position an instruction's EX cycle within a
// run.
//
// The cycle-accurate pipeline in internal/gang implements exactly one geometry —
// the classic five-stage in-order IF/ID/EX/MEM/WB machine — and validates at
// construction that the program's target declares it (FiveStage). A target
// declaring any other geometry is rejected rather than run with the wrong
// timing.
type PipelineSpec struct {
	// Stages is the pipeline depth (5: IF, ID, EX, MEM, WB).
	Stages int
	// BranchResolveStage is the zero-based stage index where control flow
	// resolves (2 = EX). A taken branch squashes the FlushSlots younger
	// stages, so the redirect penalty is FlushSlots + 1 cycles between the
	// branch's and the target's EX occupancy.
	BranchResolveStage int
	// LoadUseStall is the number of bubble cycles inserted between a load
	// and an immediately dependent consumer (1: the loaded value is
	// available after MEM, one stage past EX forwarding).
	LoadUseStall int
	// FlushSlots is the number of younger in-flight instructions squashed by
	// a taken branch or jump (2: the ID and IF occupants).
	FlushSlots int
	// FillLatency is the number of cycles between an instruction's fetch and
	// its EX occupancy (2: IF and ID), which places the first instruction of
	// a run at EX cycle FillLatency.
	FillLatency int
	// DrainLatency is the number of cycles between an instruction's EX
	// occupancy and its retirement at end of WB (2: MEM and WB). A program
	// that halts at EX cycle E finishes with E + 1 + DrainLatency total
	// cycles.
	DrainLatency int
}

// FiveStage is the classic in-order five-stage geometry implemented by the
// cycle-accurate pipeline in internal/gang: branches resolve in EX with a
// two-slot flush, loads stall a dependent consumer one cycle, and every
// instruction spends two cycles filling (IF, ID) and two draining (MEM, WB).
var FiveStage = PipelineSpec{
	Stages:             5,
	BranchResolveStage: 2,
	LoadUseStall:       1,
	FlushSlots:         2,
	FillLatency:        2,
	DrainLatency:       2,
}

// Validate rejects specs with non-positive or mutually inconsistent fields.
func (s PipelineSpec) Validate() error {
	if s.Stages <= 0 || s.BranchResolveStage < 0 || s.BranchResolveStage >= s.Stages ||
		s.LoadUseStall < 0 || s.FlushSlots < 0 || s.FillLatency < 0 || s.DrainLatency < 0 {
		return fmt.Errorf("isa: invalid pipeline spec %+v", s)
	}
	if s.FillLatency != s.BranchResolveStage {
		return fmt.Errorf("isa: pipeline spec %+v: fill latency must equal the branch resolution stage (EX position)", s)
	}
	return nil
}
