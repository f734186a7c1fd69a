// Package harness builds the simulator jobs of a compiled MiniC program.
// Resolve looks up, once per program, every address a job touches; Job
// then writes one execution's inputs and per-execution mask material
// straight into a pre-sized sim.Job, naming the fresh-mask pool by its
// mask-stream state (sim.MaskRun) rather than carrying its 4,096 words.
// Machine is the compiled program both desprog and kernels embed: DES and
// the kernels build their jobs, run their sessions and locate their masked
// regions here, so a mask seed names one memory setup everywhere and one
// declassifying function bounds the region every window stands for.
package harness

import (
	"fmt"
	"slices"
	"sync"

	"desmask/internal/compiler"
	"desmask/internal/energy"
	"desmask/internal/sim"
	"desmask/internal/trace"
)

// Machine is one compiled MiniC program ready to run on the simulator
// under one protection policy and energy configuration.
type Machine struct {
	Res *compiler.Result
	Cfg energy.Config
	// Secret names the secure-annotated input global, poked first; Declass
	// names the function that declassifies the output. Its entry ends the
	// masked region, and the text from it up to main is public by design.
	Secret, Declass string

	layout     *Layout
	layoutErr  error
	runnerOnce sync.Once
	runner     *sim.Runner
}

// Init sets up m for res: inputs are poked in the given order, the first
// being the secret, and outWords words of the output global are read back.
// A layout that does not resolve is returned, and also reported by every
// NewJob, so a caller may keep the machine for anything but jobs.
func (m *Machine) Init(res *compiler.Result, cfg energy.Config, declass string, inputs []Port, output Port, outWords int) error {
	m.Res, m.Cfg, m.Secret, m.Declass = res, cfg, inputs[0].Global, declass
	m.layout, m.layoutErr = Resolve(res, inputs, output, outWords)
	return m.layoutErr
}

// Runner returns the machine's simulation session, created on first use:
// the single path from the compiled program to the simulator.
func (m *Machine) Runner() *sim.Runner {
	m.runnerOnce.Do(func() { m.runner = sim.NewRunner(m.Res.Program, m.Cfg) })
	return m.runner
}

// NewJob builds the job of one execution through the machine's layout
// (Layout.Job).
func (m *Machine) NewJob(maskSeed int64, vals ...[]uint32) (job sim.Job, err error) {
	if err = m.layoutErr; err == nil {
		job, err = m.layout.Job(maskSeed, vals...)
	}
	return job, err
}

// EntryPC returns the first-instruction address of function fn.
func (m *Machine) EntryPC(fn string) (uint32, error) {
	addr, ok := m.Res.Program.Symbols["f_"+fn]
	if !ok {
		return 0, fmt.Errorf("no function %q in symbol table", fn)
	}
	return addr, nil
}

// DeclassRegion returns the text range [lo, hi) that declassifies the
// output: the declassifying function, up to main. Taint leaks there are
// public by design; a sound policy leaks nowhere else.
func (m *Machine) DeclassRegion() (lo, hi uint32) {
	syms := m.Res.Program.Symbols
	return syms["f_"+m.Declass], syms["f_main"]
}

// MaskedRegionEnd returns the cycle at which the declassifying function
// first reaches EX on tr: the end of the region that must be energy-flat
// across secrets, or tr.Len() when the trace stops before it.
func (m *Machine) MaskedRegionEnd(tr *trace.Trace) (int, error) {
	entry, err := m.EntryPC(m.Declass)
	if err != nil {
		return 0, err
	}
	for i, pc := range tr.PCs {
		if pc == entry {
			return i, nil
		}
	}
	return tr.Len(), nil
}

// Port is a global a job pokes or reads and the field ("secret") naming it.
type Port struct{ Field, Global string }

// LengthError reports an input or output that would overrun its global.
type LengthError struct {
	Port
	Len, Words int
}

func (e *LengthError) Error() string {
	return fmt.Sprintf("%s: %d words overrun global %q (%d words)", e.Field, e.Len, e.Global, e.Words)
}

type input struct {
	Port
	addr, shadow uint32 // shadow holds the mask share of a masked input
	words        int
	masked       bool
}

// Layout is one compiled program's resolved, immutable job layout.
type Layout struct {
	inputs            []input
	reads             []sim.Read // the output, then the pool cursor when masked
	scrub, pool, shuf uint32
	poolWords, shufN  int
}

// Resolve resolves the layout of res: inputs are poked in the given order,
// and outWords words of the output global are read back as Reads[0].
func Resolve(res *compiler.Result, inputs []Port, output Port, outWords int) (*Layout, error) {
	l := &Layout{}
	var masked []string
	if mrt := res.Mask; mrt != nil {
		masked, l.poolWords, l.shufN = mrt.MaskedGlobals, mrt.PoolWords, mrt.ShuffleLen
	}
	var err error
	lookup := func(name string) (addr uint32, words int) {
		addr, ok := res.Program.Symbols[compiler.GlobalLabel(name)]
		if !ok && err == nil {
			err = fmt.Errorf("no global %q in symbol table", name)
		}
		// Runtime globals the compiler injects have no declared length.
		if d := res.Analysis.File.FindGlobal(name); d != nil {
			words = 1
			if d.IsArray {
				words = d.ArrayLen
			}
		}
		return addr, words
	}
	for _, p := range inputs {
		in := input{Port: p, masked: slices.Contains(masked, p.Global)}
		in.addr, in.words = lookup(p.Global)
		if in.masked {
			in.shadow, _ = lookup(compiler.MaskShadow(p.Global))
		}
		l.inputs = append(l.inputs, in)
	}
	out, words := lookup(output.Global)
	l.reads = []sim.Read{{Addr: out, Words: outWords}}
	if l.poolWords > 0 {
		l.scrub, _ = lookup(compiler.MaskScrubSym)
		l.pool, _ = lookup(compiler.MaskPoolSym)
		cursor, _ := lookup(compiler.MaskCursorSym)
		l.reads = append(l.reads, sim.Read{Addr: cursor, Words: 1})
	}
	if l.shufN > 0 {
		l.shuf, _ = lookup(compiler.ShuffleSym)
	}
	if err == nil && outWords > words {
		err = &LengthError{Port: output, Len: outWords, Words: words}
	}
	if err != nil {
		return nil, err
	}
	return l, nil
}

// Job builds the job of one execution, drawing from the mask stream of
// maskSeed in one fixed order. vals[i] is poked word by word into input i;
// a masked input's word v goes in as the share pair v^m (global) and m
// (shadow), so the raw secret never sits in simulated memory. The stream
// then fills the scrub word, the fresh-mask pool and the shuffle
// permutation. The pool is the job's Pool run: its words are drawn when the
// job is poked, in the same place of the poke order. Reads[0] is the
// output; a masked program also reads back its final pool cursor as
// Reads[1], to assert the pool did not overflow.
func (l *Layout) Job(maskSeed int64, vals ...[]uint32) (sim.Job, error) {
	n := l.shufN
	if l.poolWords > 0 {
		n++
	}
	for i, in := range l.inputs {
		if len(vals[i]) > in.words {
			return sim.Job{}, &LengthError{Port: in.Port, Len: len(vals[i]), Words: in.words}
		}
		n += len(vals[i])
		if in.masked {
			n += len(vals[i])
		}
	}
	w := make([]sim.Write, 0, n)
	rng := sim.NewMaskStream(maskSeed)
	for i, in := range l.inputs {
		for j, v := range vals[i] {
			addr := in.addr + uint32(4*j)
			if !in.masked {
				w = append(w, sim.Write{Addr: addr, Val: v})
				continue
			}
			m := rng.Next32()
			w = append(w, sim.Write{Addr: addr, Val: v ^ m}, sim.Write{Addr: in.shadow + uint32(4*j), Val: m})
		}
	}
	var pool sim.MaskRun
	if l.poolWords > 0 {
		w = append(w, sim.Write{Addr: l.scrub, Val: rng.Next32()})
		pool = rng.Run(l.pool, l.poolWords, len(w))
	}
	// Fisher–Yates over the identity, in place in the job's last writes.
	perm := w[len(w):n]
	for j := range perm {
		perm[j] = sim.Write{Addr: l.shuf + uint32(4*j), Val: uint32(j)}
	}
	for j := len(perm) - 1; j > 0; j-- {
		k := int(rng.Next64() % uint64(j+1))
		perm[j].Val, perm[k].Val = perm[k].Val, perm[j].Val
	}
	return sim.Job{Writes: w[:n], Pool: pool, Reads: slices.Clone(l.reads)}, nil
}
