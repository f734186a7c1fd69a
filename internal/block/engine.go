// Package block implements the block-compiled "superop" engine: a fast
// execution mode over the same predecoded micro-op table the cycle-accurate
// core runs, for jobs that observe only architectural results (ciphertext,
// statistics, memory read-back) and not per-stage pipeline events.
//
// The translator discovers basic blocks lazily — straight-line micro-op runs
// ending at the first control transfer or halt — and fuses each into a slice
// of specialized Go closures plus a precomputed pipeline-state delta: the
// block's load-use stall count, the EX-cycle offset of its terminator, the
// flush geometry of a taken exit, and the data-independent portion of its
// energy. The dispatch loop then threads from block to block doing arithmetic
// on those deltas instead of simulating five stages per cycle. Everything
// dynamic (register values, memory, branch outcomes) executes through
// cpu.ExecUOp, the same EX-stage semantics the pipelined core and the
// RefModel use, so block-fused execution cannot drift architecturally.
//
// Timing is reconstructed exactly, not approximated. In the five-stage
// geometry (isa.PipelineSpec), with E(i) the cycle micro-op i occupies EX:
//
//	E(first of run)    = FillLatency
//	E(next sequential) = E(prev) + 1 + loadUseStall(prev, next)
//	E(taken target)    = E(transfer) + RedirectPenalty
//	total cycles       = E(halt) + 1 + DrainLatency
//
// Load-use stalls never cross a block boundary — a fall-through predecessor
// is a branch, never a load, and a taken transfer separates producer and
// consumer by the flush bubbles — so every stall is attributable to a static
// intra-block pair and the per-block delta is exact. The engine's Stats
// (cycles, instructions, secure instructions, stalls, flushes) are therefore
// bit-identical to the cycle-accurate core's for every run it completes.
//
// Deoptimization contract: the engine either completes a run to halt with
// exact results, or abandons it with a *DeoptError (matching ErrDeopt) and
// touches nothing the caller can observe. It deopts on any condition whose
// architectural outcome it cannot reproduce exactly at a cycle boundary: a
// memory or jump fault, a cycle budget that may expire mid-block, a control
// transfer leaving the text segment, a block running off the end of the text,
// or a target geometry other than the five-stage spec. The session layer
// (internal/sim) then replays the whole job on the unmodified cycle-accurate
// core — the deopt boundary is cycle 0, which is trivially exact — and jobs
// that attach probes or capture traces never enter block mode at all. See
// DESIGN.md §13.
package block

import (
	"errors"
	"fmt"

	"desmask/internal/asm"
	"desmask/internal/cpu"
	"desmask/internal/energy"
	"desmask/internal/isa"
	"desmask/internal/mem"
)

// ErrDeopt is the sentinel matched by errors.Is when the engine abandons a
// run for the cycle-accurate core. It is not a failure: the caller replays
// the job on the pipelined CPU, which produces the exact result (including
// the exact fault or cycle-limit error, if any).
var ErrDeopt = errors.New("block: deoptimized to the cycle-accurate core")

// DeoptError reports why the engine abandoned a run. It matches ErrDeopt and
// unwraps to the underlying cause when one exists (a memory fault, a jr
// misalignment).
type DeoptError struct {
	// Reason is a short human-readable cause, for diagnostics and tests.
	Reason string
	// PC is the program counter the engine was at when it gave up.
	PC uint32
	// Cause is the underlying fault, when the reason is a fault.
	Cause error
}

// Error implements error.
func (e *DeoptError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("block: deopt at pc %#x: %s: %v", e.PC, e.Reason, e.Cause)
	}
	return fmt.Sprintf("block: deopt at pc %#x: %s", e.PC, e.Reason)
}

// Unwrap returns the underlying fault.
func (e *DeoptError) Unwrap() error { return e.Cause }

// Is matches the ErrDeopt sentinel.
func (e *DeoptError) Is(target error) bool { return target == ErrDeopt }

// Engine is one block-compiled core. Create with New; it mirrors the
// construction and reset contract of the pipeline (gang.New at one lane)
// over the same program so the session layer can substitute one for the
// other per job.
type Engine struct {
	prog *asm.Program
	spec isa.PipelineSpec
	uops []isa.UOp
	mem  *mem.Memory

	regs   [isa.NumRegs]uint32
	pc     uint32
	halted bool
	stats  cpu.Stats
	err    error // fault latched by an op closure

	blocks map[int32]*compiledBlock

	// Static (data-independent) energy accounting; see internal/energy's
	// static.go. Enabled when New receives a non-nil config.
	energyOn bool
	cfg      energy.Config
	scale    [isa.NumExecClasses]float64
	staticPJ float64
}

// New builds a block engine with the program loaded: text predecoded, data
// image copied into memory, SP/GP initialised exactly as cpu.Lane.Init does. A
// non-nil energy config enables static (data-independent) energy
// accumulation, reported by StaticPJ after each completed run. New fails for
// targets that do not declare the five-stage pipeline geometry; callers
// should gate on isa.BlockCompilable and fall back to the cycle-accurate
// core.
func New(p *asm.Program, m *mem.Memory, cfg *energy.Config) (*Engine, error) {
	if len(p.Text) == 0 {
		return nil, errors.New("block: empty program")
	}
	target := p.TargetOrDefault()
	if !isa.BlockCompilable(target) {
		return nil, fmt.Errorf("block: target %s declares pipeline %+v; only the five-stage geometry is block compilable",
			target.Name(), target.Pipeline())
	}
	uops, err := isa.PredecodeProgramFor(target, p.Text, p.TextBase)
	if err != nil {
		return nil, fmt.Errorf("block: %w", err)
	}
	e := &Engine{
		prog:   p,
		spec:   target.Pipeline(),
		uops:   uops,
		mem:    m,
		pc:     p.Entry,
		blocks: make(map[int32]*compiledBlock),
	}
	if err := m.LoadImage(p.DataBase, p.Data); err != nil {
		return nil, err
	}
	e.regs[isa.SP] = p.DataEnd() + 4096
	e.regs[isa.GP] = p.DataBase
	if cfg != nil {
		e.energyOn = true
		e.cfg = *cfg
		e.scale = target.ALUOpScale()
	}
	return e, nil
}

// Reset returns the engine to its post-New state: memory cleared and the
// data image reloaded, registers, PC, statistics and energy accumulation
// zeroed. The compiled-block cache is retained — blocks depend only on the
// immutable micro-op table.
func (e *Engine) Reset() error {
	e.mem.Reset()
	if err := e.mem.LoadImage(e.prog.DataBase, e.prog.Data); err != nil {
		return err
	}
	e.regs = [isa.NumRegs]uint32{}
	e.regs[isa.SP] = e.prog.DataEnd() + 4096
	e.regs[isa.GP] = e.prog.DataBase
	e.pc = e.prog.Entry
	e.halted = false
	e.stats = cpu.Stats{}
	e.err = nil
	e.staticPJ = 0
	return nil
}

// Reg returns the current architectural value of r.
func (e *Engine) Reg(r isa.Reg) uint32 { return e.regs[r] }

// SetReg sets an architectural register (test and loader use).
func (e *Engine) SetReg(r isa.Reg, v uint32) {
	if r != isa.Zero {
		e.regs[r] = v
	}
}

// Mem returns the data memory.
func (e *Engine) Mem() *mem.Memory { return e.mem }

// Halted reports whether the program ran to its halt instruction.
func (e *Engine) Halted() bool { return e.halted }

// Stats returns the run statistics. Valid only after a nil return from Run;
// a deoptimized run leaves partial, meaningless counters behind.
func (e *Engine) Stats() cpu.Stats { return e.stats }

// StaticPJ returns the data-independent energy of the completed run: the sum
// of every executed micro-op's static cost, the squashed-slot statics of
// taken transfers, and the per-cycle clock energy. It is a strict lower
// bound on what the energy meter reports for the same run in cycle mode
// (transition terms are non-negative); exact per-cycle energy requires the
// meter, which forces cycle mode. Zero when New received no energy config.
func (e *Engine) StaticPJ() float64 { return e.staticPJ }

// Blocks returns the number of distinct basic blocks compiled so far.
func (e *Engine) Blocks() int { return len(e.blocks) }

// deoptf builds a DeoptError.
func (e *Engine) deoptf(pc uint32, cause error, format string, args ...any) error {
	return &DeoptError{Reason: fmt.Sprintf(format, args...), PC: pc, Cause: cause}
}

// textIndex maps a pc to its micro-op index, rejecting addresses outside the
// text segment or misaligned.
func (e *Engine) textIndex(pc uint32) (int32, bool) {
	if pc < e.prog.TextBase || pc%4 != 0 {
		return 0, false
	}
	idx := (pc - e.prog.TextBase) / 4
	if int(idx) >= len(e.uops) {
		return 0, false
	}
	return int32(idx), true
}

// Run executes the program to halt, or returns a *DeoptError (matching
// ErrDeopt) when the run must be replayed on the cycle-accurate core: on any
// fault, on a cycle budget that may expire before retirement, or on control
// flow the translator does not fuse. On a nil return the engine's registers,
// memory, Stats and StaticPJ are bit-identical to a cycle-accurate run of
// the same job.
func (e *Engine) Run(maxCycles uint64) error {
	if e.halted {
		return errors.New("block: running a halted engine")
	}
	retire := uint64(e.spec.DrainLatency) + 1
	redirect := uint64(e.spec.RedirectPenalty())
	// ex is the EX-stage cycle of the block's first micro-op.
	ex := uint64(e.spec.FillLatency)

	idx, ok := e.textIndex(e.pc)
	if !ok {
		return e.deoptf(e.pc, nil, "entry outside text segment")
	}
	for {
		b := e.blocks[idx]
		if b == nil {
			var err error
			if b, err = e.compile(idx); err != nil {
				return err
			}
			e.blocks[idx] = b
		}
		termEx := ex + b.exLast
		// Conservative budget precheck: if this block's terminator cannot
		// retire within the budget, no continuation can halt in time either
		// (EX cycles only grow), so the limit is certain to expire and the
		// cycle-accurate replay will report it at the exact cycle.
		if termEx+retire > maxCycles {
			return e.deoptf(e.uops[idx].PC, nil, "cycle budget %d may expire mid-block", maxCycles)
		}
		for _, op := range b.code {
			if !op(e) {
				return e.deoptf(e.pc, e.err, "fault")
			}
		}
		e.stats.Insts += uint64(b.n)
		e.stats.SecureInst += b.secure
		e.stats.Stalls += b.stalls
		e.staticPJ += b.staticPJ

		u := &e.uops[b.termIdx]
		if b.term == isa.TermHalt {
			e.stats.Cycles = termEx + retire
			e.halted = true
			e.pc = u.PC
			if e.energyOn {
				e.staticPJ += e.cfg.Params.ClockPJ * float64(e.stats.Cycles)
			}
			return nil
		}
		a := e.regs[u.SrcA]
		bv := u.BConst
		if u.BReg {
			bv = e.regs[u.SrcB]
		}
		res, target, taken, err := cpu.ExecUOp(u, a, bv)
		if err != nil {
			return e.deoptf(u.PC, err, "terminator fault")
		}
		if u.Dest != isa.Zero {
			e.regs[u.Dest] = res // jal link register
		}
		if taken {
			e.stats.Flushes += b.flushTaken
			e.staticPJ += b.squashTakenPJ
			ti, ok := e.textIndex(target)
			if !ok {
				return e.deoptf(u.PC, nil, "transfer target %#x outside text segment", target)
			}
			ex, idx = termEx+redirect, ti
			e.pc = target
		} else {
			if int(b.fallIdx) >= len(e.uops) {
				return e.deoptf(u.PC, nil, "fall-through past end of text segment")
			}
			ex, idx = termEx+1, b.fallIdx
			e.pc = u.PC + 4
		}
	}
}
