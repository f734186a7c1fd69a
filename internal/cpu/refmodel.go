package cpu

import (
	"errors"
	"fmt"

	"desmask/internal/asm"
	"desmask/internal/isa"
	"desmask/internal/mem"
)

// RefModel is a functional, one-instruction-at-a-time golden model of the
// ISA with no pipeline. It executes the same predecoded micro-op table with
// the same EX-stage semantics (ExecUOp) as the pipeline (internal/gang), so
// co-simulating the two validates exactly the machinery that can go wrong in
// the pipeline: operand bypassing, load-use stalls, control-flow flushes, and
// writeback ordering.
type RefModel struct {
	prog *asm.Program
	uops []isa.UOp
	mem  *mem.Memory
	regs [isa.NumRegs]uint32
	pc   uint32

	halted bool
	insts  uint64
}

// NewRef builds a reference model with the program's data image loaded and
// the same initial register state the pipeline uses (Lane.Init).
func NewRef(p *asm.Program, m *mem.Memory) (*RefModel, error) {
	if len(p.Text) == 0 {
		return nil, errors.New("cpu: empty program")
	}
	uops, err := isa.PredecodeProgramFor(p.TargetOrDefault(), p.Text, p.TextBase)
	if err != nil {
		return nil, fmt.Errorf("cpu: %w", err)
	}
	r := &RefModel{prog: p, uops: uops, mem: m, pc: p.Entry}
	if err := m.LoadImage(p.DataBase, p.Data); err != nil {
		return nil, err
	}
	r.regs[isa.SP] = p.DataEnd() + 4096
	r.regs[isa.GP] = p.DataBase
	return r, nil
}

// Reg returns an architectural register value.
func (r *RefModel) Reg(reg isa.Reg) uint32 { return r.regs[reg] }

// SetReg sets an architectural register.
func (r *RefModel) SetReg(reg isa.Reg, v uint32) {
	if reg != isa.Zero {
		r.regs[reg] = v
	}
}

// Mem returns the data memory.
func (r *RefModel) Mem() *mem.Memory { return r.mem }

// Halted reports whether a halt instruction retired.
func (r *RefModel) Halted() bool { return r.halted }

// Insts returns the number of executed instructions.
func (r *RefModel) Insts() uint64 { return r.insts }

// Run executes until halt or maxInsts instructions. It returns a
// *CycleLimitError (matching ErrCycleLimit) when the budget expires first.
func (r *RefModel) Run(maxInsts uint64) error {
	for !r.halted {
		if r.insts >= maxInsts {
			return &CycleLimitError{Limit: maxInsts}
		}
		if err := r.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Step executes one instruction.
func (r *RefModel) Step() error {
	if r.halted {
		return errors.New("cpu: stepping a halted reference model")
	}
	idx := (r.pc - r.prog.TextBase) / 4
	if r.pc < r.prog.TextBase || int(idx) >= len(r.uops) || r.pc%4 != 0 {
		return fmt.Errorf("cpu: ref fetch outside text segment at pc %#x", r.pc)
	}
	u := &r.uops[idx]
	r.insts++

	// Operand selection uses the predecoded routing, mirroring the ID stage.
	a := r.regs[u.SrcA]
	b := u.BConst
	if u.BReg {
		b = r.regs[u.SrcB]
	}

	res, target, taken, err := ExecUOp(u, a, b)
	if err != nil {
		return err
	}

	value := res
	switch {
	case u.Load:
		v, lerr := r.mem.LoadWord(res)
		if lerr != nil {
			return fmt.Errorf("cpu: ref pc %#x: %w", r.pc, lerr)
		}
		value = v
	case u.Store:
		if serr := r.mem.StoreWord(res, b); serr != nil {
			return fmt.Errorf("cpu: ref pc %#x: %w", r.pc, serr)
		}
	case u.Class == isa.ClassHalt:
		r.halted = true
	}
	if u.Dest != isa.Zero {
		r.regs[u.Dest] = value
	}
	if taken {
		r.pc = target
	} else {
		r.pc += 4
	}
	return nil
}
