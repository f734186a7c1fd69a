package cpu

import (
	"desmask/internal/asm"
	"desmask/internal/isa"
	"desmask/internal/mem"
)

// Lane is the per-instance architectural half of the split core: the
// register file, the data memory, and the data values flowing through the
// pipeline latches. Everything in a Lane differs from run to run with the
// input data; everything outside it — the predecoded micro-op table, PC
// sequencing, latch valid/occupant control, stall and flush decisions — is
// data-independent for a fixed program path and therefore shareable across
// instances executing in lockstep.
//
// The pipeline (internal/gang) steps one Lane for a scalar run, or N of them
// through a single shared control computation per cycle.
type Lane struct {
	// Regs is the architectural register file.
	Regs [isa.NumRegs]uint32
	// Mem is the data memory.
	Mem *mem.Memory

	// Data halves of the pipeline latches. The control halves (which latch
	// is valid and which micro-op it holds) live with the pipeline, because
	// they are identical across lockstepped lanes.
	IDA, IDB uint32 // ID/EX operands as read in ID (pre-forwarding)
	EXOut    uint32 // EX/MEM ALU result (or memory address)
	EXStore  uint32 // EX/MEM store value
	WBVal    uint32 // MEM/WB value headed to the register file
}

// Init loads the program's data image and initialises the registers: SP at
// the top of a 4 KiB stack above the data segment, GP at the data base.
func (l *Lane) Init(p *asm.Program) error {
	if err := l.Mem.LoadImage(p.DataBase, p.Data); err != nil {
		return err
	}
	l.Regs[isa.SP] = p.DataEnd() + 4096
	l.Regs[isa.GP] = p.DataBase
	return nil
}

// Reset returns the lane to its power-on state for the program: memory
// cleared and the data image reloaded, registers and latch data zeroed, then
// Init applied. A reset lane is bit-identical to a fresh one.
func (l *Lane) Reset(p *asm.Program) error {
	l.Mem.Reset()
	l.Regs = [isa.NumRegs]uint32{}
	l.IDA, l.IDB, l.EXOut, l.EXStore, l.WBVal = 0, 0, 0, 0, 0
	return l.Init(p)
}
