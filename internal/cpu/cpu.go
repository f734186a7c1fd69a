// Package cpu holds the building blocks of the five-stage pipelined
// smart-card processor the paper targets — in-order IF/ID/EX/MEM/WB, full
// ALU forwarding, a one-cycle load-use stall, branches resolved in EX with a
// two-cycle flush, and the secure-instruction extension that runs the marked
// instruction on the precharged dual-rail datapath — together with RefModel,
// the pipeline-free golden model.
//
// The pipeline itself is stepped in one place, internal/gang, for one lane
// (a scalar run) or many lockstepped lanes. This package supplies what that
// step and the other executors share: the EX-stage semantics (ExecUOp), the
// per-instance architectural state (Lane), run statistics and errors, and
// the per-cycle observation interface (Probe).
package cpu

import (
	"errors"
	"fmt"

	"desmask/internal/isa"
)

// Stats summarises a finished run. Energy totals live with the energy meter
// (energy.Probe), not here.
type Stats struct {
	Cycles     uint64
	Insts      uint64 // instructions retired
	SecureInst uint64 // retired instructions that ran dual-rail
	Stalls     uint64 // load-use stall cycles
	Flushes    uint64 // instructions squashed by taken branches/jumps
}

// ErrCycleLimit is the sentinel matched by errors.Is when a run exhausts its
// cycle budget before the program halts. The concrete error is a
// *CycleLimitError carrying the budget.
var ErrCycleLimit = errors.New("cpu: cycle limit reached before halt")

// CycleLimitError reports that a run hit its cycle budget before halting. It is
// distinguishable from program faults (fetch/memory errors, misaligned jumps):
// errors.Is(err, ErrCycleLimit) matches only budget expiry.
type CycleLimitError struct {
	Limit uint64
}

// Error implements error.
func (e *CycleLimitError) Error() string {
	return fmt.Sprintf("cpu: cycle limit of %d reached before halt", e.Limit)
}

// Is reports that a CycleLimitError matches the ErrCycleLimit sentinel.
func (e *CycleLimitError) Is(target error) bool { return target == ErrCycleLimit }

// ExecUOp computes the EX-stage result of one micro-op: the ALU output (or
// memory address), plus branch/jump resolution. It is shared by the pipeline
// (internal/gang), the RefModel golden model and the taint checker
// (internal/leakcheck), so that co-simulation isolates pipeline-control bugs
// and no executor can drift from the cycle-accurate EX semantics.
func ExecUOp(u *isa.UOp, a, b uint32) (res, target uint32, taken bool, err error) {
	switch u.Class {
	case isa.ClassAdd:
		res = a + b
	case isa.ClassSub:
		res = a - b
	case isa.ClassAnd:
		res = a & b
	case isa.ClassOr:
		res = a | b
	case isa.ClassXor:
		res = a ^ b
	case isa.ClassNor:
		res = ^(a | b)
	case isa.ClassSll:
		// ID places the shifted value in a and the count (immediate or rt)
		// in b for both fixed and variable shifts.
		res = a << (b & 31)
	case isa.ClassSrl:
		res = a >> (b & 31)
	case isa.ClassSra:
		res = uint32(int32(a) >> (b & 31))
	case isa.ClassSlt:
		if int32(a) < int32(b) {
			res = 1
		}
	case isa.ClassSltu:
		if a < b {
			res = 1
		}
	case isa.ClassMul:
		res = a * b
	case isa.ClassLui:
		res = b << 15
	case isa.ClassLui12:
		res = b << 12
	case isa.ClassMem:
		res = a + u.Off // address; b carries the store value
	case isa.ClassBeq:
		res = a - b
		if a == b {
			target, taken = u.Target, true
		}
	case isa.ClassBne:
		res = a - b
		if a != b {
			target, taken = u.Target, true
		}
	case isa.ClassBlez:
		if int32(a) <= 0 {
			target, taken = u.Target, true
		}
	case isa.ClassBgtz:
		if int32(a) > 0 {
			target, taken = u.Target, true
		}
	case isa.ClassJ:
		target, taken = u.Target, true
	case isa.ClassJal:
		res = u.PC + 4
		target, taken = u.Target, true
	case isa.ClassJr:
		target, taken = a, true
		if target%4 != 0 {
			return 0, 0, false, fmt.Errorf("cpu: jr to misaligned address %#x at pc %#x", target, u.PC)
		}
	case isa.ClassHalt:
		// no datapath effect
	default:
		return 0, 0, false, fmt.Errorf("cpu: unimplemented exec class %v at pc %#x", u.Class, u.PC)
	}
	return res, target, taken, nil
}
