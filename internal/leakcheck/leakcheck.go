// Package leakcheck verifies the masking compiler's output independently of
// the energy model: it executes a program's predecoded micro-ops one at a
// time, with the pipeline's own EX semantics (cpu.ExecUOp), under shadow
// taint — every register and memory word carries a "derived from a secret"
// bit — and reports every instruction that processes a tainted value without
// its secure bit set. A correctly masked program reports
// leaks only at its declassification points (the output permutation);
// anything else is a hole the dual-rail datapath would expose to DPA.
//
// This is the dynamic dual of the compiler's static forward slice: the
// compiler decides where secure instructions go; leakcheck confirms, on a
// concrete run, that the decision covered every secret-touching operation.
package leakcheck

import (
	"errors"
	"fmt"
	"sort"

	"desmask/internal/asm"
	"desmask/internal/cpu"
	"desmask/internal/isa"
	"desmask/internal/mem"
	"desmask/internal/sim"
)

// Leak is one insecure instruction observed processing tainted data.
type Leak struct {
	PC    uint32
	Inst  isa.Inst
	Count int // dynamic occurrences
}

// Report is the outcome of a checked run.
type Report struct {
	// Leaks aggregates insecure-but-tainted instructions by PC, sorted by
	// address.
	Leaks []Leak
	// SecureInsecureData counts secure instructions that processed only
	// untainted data — wasted masking energy (the over-approximation cost
	// of whole-array taint and blanket policies).
	SecureInsecureData uint64
	// Insts is the number of executed instructions.
	Insts uint64
}

// LeakCount returns the total dynamic leak count.
func (r *Report) LeakCount() int {
	n := 0
	for _, l := range r.Leaks {
		n += l.Count
	}
	return n
}

// LeaksOutsideRegion filters leaks to those outside [lo, hi) — e.g. outside
// the declassifying output permutation.
func (r *Report) LeaksOutsideRegion(lo, hi uint32) []Leak {
	var out []Leak
	for _, l := range r.Leaks {
		if l.PC < lo || l.PC >= hi {
			out = append(out, l)
		}
	}
	return out
}

// TaintRange names one secret input region: Words words starting at Addr.
type TaintRange struct {
	Addr  uint32
	Words int
}

// CheckProgram is the one-call check used by the assessment tools: run prog
// with the given regions poked with fixed nonzero values and tainted,
// returning the taint report. It answers "does this build leak outside its
// declassification points" without the caller wiring a Checker by hand;
// anything subtler (per-word values, batch checks) still uses New/CheckJob.
func CheckProgram(prog *asm.Program, secrets []TaintRange) (*Report, error) {
	c, err := New(prog)
	if err != nil {
		return nil, err
	}
	for _, s := range secrets {
		for i := 0; i < s.Words; i++ {
			// Arbitrary distinct nonzero values; taint, not data, drives the
			// verdict.
			if err := c.SetWord(s.Addr+uint32(4*i), uint32(i)*0x9e37+1, true); err != nil {
				return nil, err
			}
		}
	}
	return c.Run()
}

// CheckJob is one independent leak check: a compiled program plus the taint
// setup that pokes and marks its secret inputs.
type CheckJob struct {
	Prog *asm.Program
	// Setup marks secrets (SetWord/TaintWords) on the fresh checker; nil
	// runs the program with nothing tainted.
	Setup func(c *Checker) error
}

// RunBatch executes independent leak checks across a worker pool
// (workers <= 0 uses GOMAXPROCS), returning reports in job order. Each job
// gets its own checker, so reports are identical for every worker count.
func RunBatch(jobs []CheckJob, workers int) ([]*Report, error) {
	reports := make([]*Report, len(jobs))
	err := sim.ForEach(len(jobs), workers, func(i int) error {
		c, err := New(jobs[i].Prog)
		if err != nil {
			return err
		}
		if jobs[i].Setup != nil {
			if err := jobs[i].Setup(c); err != nil {
				return err
			}
		}
		rep, err := c.Run()
		if err != nil {
			return err
		}
		reports[i] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	return reports, nil
}

// Checker executes with shadow taint. Create with New, mark secrets with
// TaintWords, then Run.
type Checker struct {
	prog *asm.Program
	uops []isa.UOp // predecoded text, index = (pc-TextBase)/4
	mem  *mem.Memory
	tmem map[uint32]bool // tainted memory words (by address)

	regs  [isa.NumRegs]uint32
	taint [isa.NumRegs]bool
	pc    uint32

	halted bool
	insts  uint64

	leaks  map[uint32]*Leak
	wasted uint64

	maxInsts uint64
}

// New builds a checker with the program image loaded.
func New(p *asm.Program) (*Checker, error) {
	if len(p.Text) == 0 {
		return nil, errors.New("leakcheck: empty program")
	}
	uops, err := isa.PredecodeProgramFor(p.TargetOrDefault(), p.Text, p.TextBase)
	if err != nil {
		return nil, fmt.Errorf("leakcheck: %w", err)
	}
	m := mem.New()
	if err := m.LoadImage(p.DataBase, p.Data); err != nil {
		return nil, err
	}
	c := &Checker{
		prog:     p,
		uops:     uops,
		mem:      m,
		tmem:     map[uint32]bool{},
		pc:       p.Entry,
		leaks:    map[uint32]*Leak{},
		maxInsts: 50_000_000,
	}
	c.regs[isa.SP] = p.DataEnd() + 4096
	c.regs[isa.GP] = p.DataBase
	return c, nil
}

// Mem exposes the data memory for input poking.
func (c *Checker) Mem() *mem.Memory { return c.mem }

// TaintWords marks n words starting at addr as secret.
func (c *Checker) TaintWords(addr uint32, n int) {
	for i := 0; i < n; i++ {
		c.tmem[addr+uint32(4*i)] = true
	}
}

// SetWord stores a word and its taint.
func (c *Checker) SetWord(addr, v uint32, tainted bool) error {
	if err := c.mem.StoreWord(addr, v); err != nil {
		return err
	}
	if tainted {
		c.tmem[addr] = true
	} else {
		delete(c.tmem, addr)
	}
	return nil
}

// Run executes to halt and returns the report.
func (c *Checker) Run() (*Report, error) {
	for !c.halted {
		if c.insts >= c.maxInsts {
			return nil, fmt.Errorf("leakcheck: exceeded %d instructions", c.maxInsts)
		}
		if err := c.step(); err != nil {
			return nil, err
		}
	}
	rep := &Report{SecureInsecureData: c.wasted, Insts: c.insts}
	for _, l := range c.leaks {
		rep.Leaks = append(rep.Leaks, *l)
	}
	sort.Slice(rep.Leaks, func(i, j int) bool { return rep.Leaks[i].PC < rep.Leaks[j].PC })
	return rep, nil
}

// record notes an instruction processing tainted data without protection, or
// a secure instruction running on clean data.
func (c *Checker) record(u *isa.UOp, tainted bool) {
	switch {
	case tainted && !u.Secure:
		l := c.leaks[u.PC]
		if l == nil {
			l = &Leak{PC: u.PC, Inst: u.Inst}
			c.leaks[u.PC] = l
		}
		l.Count++
	case !tainted && u.Secure:
		c.wasted++
	}
}

// write sets a destination register and its taint; $zero is never written,
// so reads through it stay zero and clean.
func (c *Checker) write(d isa.Reg, v uint32, tainted bool) {
	if d != isa.Zero {
		c.regs[d] = v
		c.taint[d] = tainted
	}
}

func (c *Checker) step() error {
	idx := (c.pc - c.prog.TextBase) / 4
	if c.pc < c.prog.TextBase || int(idx) >= len(c.uops) || c.pc%4 != 0 {
		return fmt.Errorf("leakcheck: fetch outside text at pc %#x", c.pc)
	}
	u := &c.uops[idx]
	c.insts++

	// Operand values and taint through the predecoded routing, as ID reads
	// them.
	a, b := c.regs[u.SrcA], u.BConst
	ta, tb := c.taint[u.SrcA], false
	if u.BReg {
		b, tb = c.regs[u.SrcB], c.taint[u.SrcB]
	}
	res, target, taken, err := cpu.ExecUOp(u, a, b)
	if err != nil {
		return fmt.Errorf("leakcheck: %w", err)
	}

	switch {
	case u.Load:
		v, err := c.mem.LoadWord(res)
		if err != nil {
			return fmt.Errorf("leakcheck: pc %#x: %w", u.PC, err)
		}
		// A load is sensitive when the loaded value is tainted OR the
		// address derives from a secret (the secure-indexing condition).
		t := c.tmem[res] || ta
		c.record(u, t)
		c.write(u.Dest, v, t)
	case u.Store:
		if err := c.mem.StoreWord(res, b); err != nil {
			return fmt.Errorf("leakcheck: pc %#x: %w", u.PC, err)
		}
		t := ta || tb
		c.record(u, t)
		if t {
			c.tmem[res] = true
		} else {
			delete(c.tmem, res)
		}
	case u.Inst.Op.IsBranch():
		// Branches are never securable; a tainted condition is a control-
		// flow leak the compiler warns about separately. Record it as a
		// leak here too: timing *is* observable.
		c.record(u, ta || tb)
	case u.Class == isa.ClassJ:
	case u.Class == isa.ClassJal:
		c.write(u.Dest, res, false)
	case u.Class == isa.ClassJr:
		c.record(u, ta)
	case u.Class == isa.ClassHalt:
		c.halted = true
	default:
		// ALU operations (including lui).
		c.record(u, ta || tb)
		c.write(u.Dest, res, ta || tb)
	}

	c.pc = u.PC + 4
	if taken {
		c.pc = target
	}
	return nil
}
