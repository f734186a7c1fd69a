// Package gang implements the simulator's pipeline: the five-stage
// cycle-accurate core the paper targets, stepped for N instances ("lanes")
// of one program through a single shared control computation per cycle. A
// scalar run is a gang of one lane. Statistics workloads (TVLA, DPA) run one
// program thousands of times with only the data varying, so fetch, decode,
// stall and flush geometry, PC sequencing and latch occupancy — everything
// data-independent — is computed once per cycle and amortized across the
// gang, while the data path (registers, memory, latch data values, energy
// rails) is replicated per lane via cpu.Lane and energy.VecMeter, the one
// energy meter.
//
// Deoptimization contract: lockstep is only valid while every lane's control
// flow is identical. The first lane to reach EX each cycle is the gang
// reference; any lane whose branch outcome or jump target diverges from it,
// or that faults in MEM or EX, leaves the gang with a *DeoptError (matching
// ErrDeopt) and is replayed from cycle 0 as a one-lane run by the session
// layer (internal/sim). A fatal fetch fault — a shared-control condition the
// gang cannot attribute to one lane — deopts every live lane. An expired
// cycle budget is not a deopt: lockstep state is cycle-exact, so lanes still
// live at expiry hold precisely a one-lane run's partial state (see Run).
//
// A one-lane run never deopts: it has no reference to diverge from, and its
// faults are final. Run returns the fault itself (the DeoptError's Cause),
// with the statistics and lane state of the cycle the fault interrupted —
// the stages before the faulting one done, nothing from it on.
package gang

import (
	"errors"
	"fmt"

	"desmask/internal/asm"
	"desmask/internal/cpu"
	"desmask/internal/energy"
	"desmask/internal/isa"
	"desmask/internal/mem"
	"desmask/internal/trace"
)

// ErrDeopt is the sentinel matched by errors.Is when a lane leaves the gang.
// It is not a failure: the caller replays the lane's job as a one-lane run,
// which produces the exact result (including the exact fault or cycle-limit
// error, if any).
var ErrDeopt = errors.New("gang: lane left lockstep for a one-lane run")

// DeoptError reports why a lane was peeled off the gang. It matches ErrDeopt
// and unwraps to the underlying cause when one exists.
type DeoptError struct {
	// Reason is a short human-readable cause, for diagnostics and tests.
	Reason string
	// PC is the program counter of the instruction the lane diverged at, or
	// the fetch PC for shared-control deopts.
	PC uint32
	// Cause is the fault, when the reason is one: the exact error a one-lane
	// run of the lane's job returns.
	Cause error
}

// Error implements error.
func (e *DeoptError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("gang: deopt at pc %#x: %s: %v", e.PC, e.Reason, e.Cause)
	}
	return fmt.Sprintf("gang: deopt at pc %#x: %s", e.PC, e.Reason)
}

// Unwrap returns the underlying fault.
func (e *DeoptError) Unwrap() error { return e.Cause }

// Is matches the ErrDeopt sentinel.
func (e *DeoptError) Is(target error) bool { return target == ErrDeopt }

// latch is the shared control half of a pipeline latch: occupancy plus an
// index into the micro-op table. The data values live in each cpu.Lane;
// everything static about the instruction is read from the table.
type latch struct {
	valid bool
	idx   int32
}

// Engine steps up to Width lanes of one program in lockstep. Create with
// New, then per run: Reset(n), configure observation (SetSampleWindow /
// SetLaneSampleBuf, EnableTrace, EnableMeter, Attach), poke per-lane inputs
// through Lane(i), and call Run. Afterwards LaneErr(i) is nil for every lane
// that completed in lockstep — its Lane(i) state and the shared Stats are
// bit-identical to a one-lane run — and a *DeoptError for every lane that
// must be replayed.
type Engine struct {
	prog  *asm.Program
	uops  []isa.UOp
	scale [isa.NumExecClasses]float64
	width int

	vec   *energy.VecMeter
	lanes []cpu.Lane

	// Per-run shared control state.
	n       int
	live    []int // lane indices still in lockstep, in lane order
	laneErr []error
	pc      uint32
	ifid    latch
	idex    latch
	exmem   latch
	memwb   latch

	draining bool
	halted   bool
	stats    cpu.Stats

	// Observation. With a sample window, cycles in [sampleStart, sampleEnd)
	// are metered and written to the per-lane buffers; cycles before the
	// window advance rail history quietly; cycles after it skip the meter
	// entirely (nothing downstream can observe them). Trace mode meters and
	// records every cycle, as does the lane-0 meter (meterOn), which probes
	// read after each commit.
	sampleStart, sampleEnd uint64
	sampleBufs             [][]float64
	traceOn                bool
	traces                 []trace.Trace
	meterOn                bool
	meter                  energy.Probe
	probes                 []cpu.Probe

	ev energy.LaneEvents // reused per cycle; no steady-state allocation
}

// Predecode checks that the program targets the five-stage geometry this
// core implements and predecodes its text into the micro-op table New
// takes, so the step is pure table dispatch with no decoding. Engines only
// read the table: one serves every engine of the program.
func Predecode(p *asm.Program) ([]isa.UOp, error) {
	if len(p.Text) == 0 {
		return nil, errors.New("gang: empty program")
	}
	target := p.TargetOrDefault()
	if spec := target.Pipeline(); spec != isa.FiveStage {
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("gang: target %s: %w", target.Name(), err)
		}
		return nil, fmt.Errorf("gang: target %s declares pipeline %+v, but this core implements only the five-stage geometry %+v",
			target.Name(), spec, isa.FiveStage)
	}
	uops, err := isa.PredecodeProgramFor(target, p.Text, p.TextBase)
	if err != nil {
		return nil, fmt.Errorf("gang: %w", err)
	}
	return uops, nil
}

// New builds an engine over the program, given its micro-op table from
// Predecode, with capacity for width lanes. Call Reset before the first run.
func New(p *asm.Program, uops []isa.UOp, cfg energy.Config, width int) (*Engine, error) {
	if width < 1 {
		return nil, fmt.Errorf("gang: width %d < 1", width)
	}
	e := &Engine{
		prog:       p,
		uops:       uops,
		scale:      p.TargetOrDefault().ALUOpScale(),
		width:      width,
		vec:        energy.NewVecMeter(cfg, width),
		lanes:      make([]cpu.Lane, width),
		live:       make([]int, 0, width),
		laneErr:    make([]error, width),
		sampleBufs: make([][]float64, width),
		traces:     make([]trace.Trace, width),
	}
	for i := range e.lanes {
		e.lanes[i].Mem = mem.New()
	}
	return e, nil
}

// Width returns the lane capacity.
func (e *Engine) Width() int { return e.width }

// Lane returns lane i's architectural state, for poking inputs before Run
// and reading results after it (only meaningful when LaneErr(i) is nil).
func (e *Engine) Lane(i int) *cpu.Lane { return &e.lanes[i] }

// LaneErr returns nil when lane i completed in lockstep, or the *DeoptError
// that peeled it.
func (e *Engine) LaneErr(i int) error { return e.laneErr[i] }

// Stats returns the shared control statistics of the run — bit-identical to
// a one-lane run's Stats for every lane that completed in lockstep.
func (e *Engine) Stats() cpu.Stats { return e.stats }

// Halted reports whether the gang retired a halt.
func (e *Engine) Halted() bool { return e.halted }

// Reset prepares n lanes (1..Width) for a fresh run: every lane back to its
// power-on state (cpu.Lane.Reset), shared control zeroed, meter rails
// cleared, observation disabled and probes detached. A reset engine is
// bit-identical to a fresh one.
func (e *Engine) Reset(n int) error {
	if n < 1 || n > e.width {
		return fmt.Errorf("gang: gang size %d out of range 1..%d", n, e.width)
	}
	e.n = n
	e.live = e.live[:0]
	for i := 0; i < n; i++ {
		if err := e.lanes[i].Reset(e.prog); err != nil {
			return err
		}
		e.laneErr[i] = nil
		e.live = append(e.live, i)
	}
	e.vec.Reset(n)
	e.pc = e.prog.Entry
	e.ifid, e.idex, e.exmem, e.memwb = latch{}, latch{}, latch{}, latch{}
	e.draining, e.halted = false, false
	e.stats = cpu.Stats{}
	e.sampleStart, e.sampleEnd = 0, 0
	for i := 0; i < n; i++ {
		e.sampleBufs[i] = nil
	}
	e.traceOn, e.meterOn = false, false
	e.meter.Reset()
	e.probes = e.probes[:0]
	return nil
}

// SetSampleWindow enables per-cycle energy sampling for cycles in
// [start, end). Lanes record into the buffers registered with
// SetLaneSampleBuf. Call after Reset, before Run.
func (e *Engine) SetSampleWindow(start, end uint64) {
	e.sampleStart, e.sampleEnd = start, end
}

// SetLaneSampleBuf registers lane i's sample buffer: cycle c of the window
// lands in buf[c-start]. The buffer is caller-owned and reusable across gang
// runs — this is what keeps the assessment hot loop allocation-free. A
// buffer shorter than the window records only the cycles it can hold.
func (e *Engine) SetLaneSampleBuf(i int, buf []float64) {
	e.sampleBufs[i] = buf
}

// EnableTrace turns on full per-cycle trace recording (each cycle's metered
// energy and EX PC, trace.NoPC for a bubble) for every lane, reserving
// capacity for the expected cycle count. Call after Reset, before Run.
func (e *Engine) EnableTrace(reserve int) {
	e.traceOn = true
	for i := 0; i < e.n; i++ {
		t := &e.traces[i]
		t.Totals = t.Totals[:0]
		t.PCs = t.PCs[:0]
		if reserve > 0 && cap(t.Totals) < reserve {
			t.Totals = make([]float64, 0, reserve)
			t.PCs = make([]uint32, 0, reserve)
		}
	}
}

// LaneTrace returns lane i's recorded trace (valid until the next Reset;
// snapshot to keep). Only meaningful after a traced run with LaneErr(i)==nil.
func (e *Engine) LaneTrace(i int) *trace.Trace { return &e.traces[i] }

// EnableMeter meters every cycle and accumulates lane 0's committed cycles
// into the returned meter: run totals, peak, and the last cycle that probes
// read. It is meant for one-lane runs. Call after Reset, before Run.
func (e *Engine) EnableMeter() *energy.Probe {
	e.meterOn = true
	return &e.meter
}

// Attach registers a probe, called once per committed cycle after the meter
// has committed it, in attachment order. Probes observe lane 0; attach them
// to one-lane runs. Reset detaches every probe. A nil probe is ignored.
func (e *Engine) Attach(p cpu.Probe) {
	if p != nil {
		e.probes = append(e.probes, p)
	}
}

// Run steps the gang until halt, every lane leaving lockstep, or the cycle
// budget. Budget expiry is NOT a deopt: lockstep execution is cycle-exact, so
// a lane still live when the budget runs out holds exactly the state of a
// one-lane run that expired — same cycle count, same registers and memory,
// same windowed samples — and Run returns a *cpu.CycleLimitError (matching
// cpu.ErrCycleLimit). Budget-bounded partial runs are the statistics hot
// path: first-round TVLA windows never run programs to halt. A one-lane run
// also returns its fault, exactly; a wider gang reports faults per lane
// through LaneErr.
func (e *Engine) Run(budget uint64) error {
	for !e.halted && len(e.live) > 0 {
		if e.stats.Cycles >= budget {
			return &cpu.CycleLimitError{Limit: budget}
		}
		e.step()
	}
	if e.n == 1 && e.laneErr[0] != nil {
		return e.laneErr[0].(*DeoptError).Cause
	}
	return nil
}

// meterSkip/meterQuiet/meterFull select how much energy work a cycle does.
const (
	meterSkip = iota
	meterQuiet
	meterFull
)

// step advances the pipeline one clock cycle — the only place the pipeline
// latches advance: shared control first (WB retire, MEM/EX latch advance, ID
// stall and halt-drain decision, IF fetch), then the per-lane data paths in
// lane order and stage order (WB, MEM, EX, ID), then the control redirect,
// the latch commit and the probes. All stages observe start-of-cycle latch
// state.
func (e *Engine) step() {
	cycle := e.stats.Cycles

	mode := meterSkip
	switch {
	case e.traceOn || e.meterOn:
		mode = meterFull
	case e.sampleEnd > e.sampleStart:
		if cycle < e.sampleStart {
			mode = meterQuiet
		} else if cycle < e.sampleEnd {
			mode = meterFull
		}
	}

	oldIFID, oldIDEX, oldEXMEM, oldMEMWB := e.ifid, e.idex, e.exmem, e.memwb

	var wbU, memU, exU, idU *isa.UOp
	if oldMEMWB.valid {
		wbU = &e.uops[oldMEMWB.idx]
	}
	if oldEXMEM.valid {
		memU = &e.uops[oldEXMEM.idx]
	}
	if oldIDEX.valid {
		exU = &e.uops[oldIDEX.idx]
	}
	if oldIFID.valid {
		idU = &e.uops[oldIFID.idx]
	}

	// ---- shared control ---------------------------------------------------
	// WB retire accounting (the register write itself is per lane).
	if wbU != nil {
		e.stats.Insts++
		if wbU.Secure {
			e.stats.SecureInst++
		}
		if wbU.Class == isa.ClassHalt {
			e.halted = true
		}
	}

	newMEMWB := latch{}
	if oldEXMEM.valid {
		newMEMWB = latch{valid: true, idx: oldEXMEM.idx}
	}
	newEXMEM := latch{}
	if oldIDEX.valid {
		newEXMEM = latch{valid: true, idx: oldIDEX.idx}
	}

	// ID: stall geometry and the halt-drain decision, which must land before
	// IF runs this same cycle. The stall is counted once the lanes have
	// survived EX: a one-lane run that faults stops before its ID stage.
	stall := false
	issued := false
	newIDEX := latch{}
	if idU != nil {
		if exU != nil && loadUseHazard(exU, idU) {
			stall = true
		} else {
			issued = true
			newIDEX = latch{valid: true, idx: oldIFID.idx}
			if idU.Class == isa.ClassHalt {
				e.draining = true
			}
		}
	}

	// IF: fetch decision and PC advance.
	newIFID := oldIFID
	fetchFault := false
	fetched := false
	var fetchWord uint32
	if !stall {
		newIFID = latch{}
		if !e.draining {
			idx := (e.pc - e.prog.TextBase) / 4
			if e.pc < e.prog.TextBase || int(idx) >= len(e.uops) || e.pc%4 != 0 {
				// Fetch may legitimately run past a not-yet-resolved jump
				// (wrong-path fetch); stall the fetch unit and fault only if
				// no redirect ever arrives (checked below once the pipeline
				// drains).
				fetchFault = true
			} else {
				fetched = true
				fetchWord = e.uops[idx].Word
				newIFID = latch{valid: true, idx: int32(idx)}
				e.pc += 4
			}
		}
	}

	memAccess := memU != nil && (memU.Load || memU.Store)

	// Shared energy charges, in stage order: RegWrite (WB) before RegRead
	// (ID), the fetch rail last.
	switch mode {
	case meterFull:
		m := e.vec
		m.BeginCycle()
		if wbU != nil && wbU.Dest != isa.Zero {
			m.RegWrite()
		}
		if memAccess {
			m.MemArray()
		}
		if issued {
			m.Decode()
			m.RegRead(int(idU.NSrc))
		}
		if fetched {
			m.Fetch(fetchWord)
		}
		m.EndShared()
	case meterQuiet:
		if fetched {
			e.vec.FetchQuiet(fetchWord)
		}
	}

	// ---- per-lane data paths ----------------------------------------------
	ev := &e.ev
	ev.WB = wbU != nil
	ev.WBSecure = wbU != nil && wbU.Secure
	ev.Mem = memAccess
	ev.MemSecure = memU != nil && memU.Secure
	ev.EX = exU != nil
	if exU != nil {
		ev.EXSecure = exU.Secure
		ev.EXXor = exU.XorUnit
		ev.EXScale = e.scale[exU.Class]
	} else {
		ev.EXSecure, ev.EXXor, ev.EXScale = false, false, 0
	}

	// A uniform cycle — every active event secure under dual-rail precharge —
	// meters identically on every lane (energy is data-independent: the
	// masking property itself). The first live lane meters it for real; the
	// rest copy.
	uniform := mode == meterFull && e.vec.UniformLockstep(ev)
	metered := false
	meteredLane := 0

	redirect := false
	var redirectPC uint32
	haveRef := false
	var refTaken bool
	var refTarget uint32

	keep := e.live[:0]
	for _, li := range e.live {
		ln := &e.lanes[li]
		oldIDA, oldIDB := ln.IDA, ln.IDB
		oldEXOut, oldEXStore := ln.EXOut, ln.EXStore
		oldWBVal := ln.WBVal

		// WB: architectural register write.
		if wbU != nil {
			ev.WBVal = oldWBVal
			if wbU.Dest != isa.Zero {
				ln.Regs[wbU.Dest] = oldWBVal
			}
		}

		// MEM: loads and stores against the lane's private memory. A fault
		// peels the lane; a replay starts from reset.
		if memU != nil {
			value := oldEXOut
			switch {
			case memU.Load:
				v, err := ln.Mem.LoadWord(oldEXOut)
				if err != nil {
					e.laneErr[li] = memFault(memU, err)
					continue
				}
				value = v
				ev.MemAddr, ev.MemData = oldEXOut, v
			case memU.Store:
				if err := ln.Mem.StoreWord(oldEXOut, oldEXStore); err != nil {
					e.laneErr[li] = memFault(memU, err)
					continue
				}
				ev.MemAddr, ev.MemData = oldEXOut, oldEXStore
			}
			ln.WBVal = value
		}

		// EX: forwarding and execution via cpu.ExecUOp. The first lane
		// surviving to EX is the gang reference; lanes whose control outcome
		// differs from it are peeled.
		if exU != nil {
			a, b := forwardOperands(exU, oldIDA, oldIDB, memU, oldEXOut, wbU, oldWBVal)
			res, target, taken, err := cpu.ExecUOp(exU, a, b)
			if err != nil {
				e.laneErr[li] = &DeoptError{Reason: "exec fault", PC: exU.PC, Cause: err}
				continue
			}
			if !haveRef {
				haveRef = true
				refTaken, refTarget = taken, target
				if taken {
					redirect, redirectPC = true, target
				}
			} else if taken != refTaken || (taken && target != refTarget) {
				e.laneErr[li] = &DeoptError{Reason: "branch divergence", PC: exU.PC}
				continue
			}
			ev.A, ev.B, ev.R = a, b, res
			ln.EXOut, ln.EXStore = res, b
		}

		// ID: register reads, after this cycle's WB write.
		if issued {
			a := ln.Regs[idU.SrcA]
			b := idU.BConst
			if idU.BReg {
				b = ln.Regs[idU.SrcB]
			}
			ln.IDA, ln.IDB = a, b
		}

		switch mode {
		case meterFull:
			var total float64
			if uniform && metered {
				total = e.vec.CopyLaneCycle(meteredLane, li, ev)
			} else {
				total = e.vec.LaneCycle(li, ev)
				metered, meteredLane = true, li
			}
			if e.traceOn {
				t := &e.traces[li]
				t.Totals = append(t.Totals, total)
				pc := trace.NoPC
				if exU != nil {
					pc = exU.PC
				}
				t.PCs = append(t.PCs, pc)
			} else if buf := e.sampleBufs[li]; buf != nil {
				if i := cycle - e.sampleStart; i < uint64(len(buf)) {
					buf[i] = total
				}
			}
		case meterQuiet:
			e.vec.LaneCycleQuiet(li, ev)
		}

		keep = append(keep, li)
	}
	e.live = keep
	if len(keep) == 0 {
		// Every lane left mid-cycle; a one-lane run stops exactly where its
		// fault interrupted the cycle.
		return
	}
	if stall {
		e.stats.Stalls++
	}

	// ---- control redirect --------------------------------------------------
	if redirect {
		// Squash the two younger instructions (in ID and IF this cycle); a
		// jump may legitimately leave a halt shadow.
		if newIDEX.valid {
			e.stats.Flushes++
		}
		if newIFID.valid {
			e.stats.Flushes++
		}
		newIDEX = latch{}
		newIFID = latch{}
		e.pc = redirectPC
		e.draining = false
	}

	// A fetch fault is fatal only once the pipeline has drained with no
	// redirect possible — a shared-control condition, so every live lane
	// deopts.
	if fetchFault && !redirect && !e.draining &&
		!newIFID.valid && !newIDEX.valid && !newEXMEM.valid && !newMEMWB.valid {
		cause := fmt.Errorf("cpu: instruction fetch outside text segment at pc %#x", e.pc)
		for _, li := range e.live {
			e.laneErr[li] = &DeoptError{Reason: "fetch fault", PC: e.pc, Cause: cause}
		}
		e.live = e.live[:0]
		return
	}

	e.ifid, e.idex, e.exmem, e.memwb = newIFID, newIDEX, newEXMEM, newMEMWB
	e.stats.Cycles++
	if e.meterOn {
		e.meter.Commit(e.vec, 0)
	}
	if len(e.probes) > 0 {
		info := cpu.CycleInfo{Cycle: cycle, U: exU}
		for _, p := range e.probes {
			p.OnCycle(info)
		}
	}
}

// memFault is the deopt of a lane whose load or store faulted, carrying the
// exact error of a one-lane run.
func memFault(u *isa.UOp, err error) *DeoptError {
	return &DeoptError{Reason: "memory fault", PC: u.PC, Cause: fmt.Errorf("cpu: pc %#x: %w", u.PC, err)}
}

// loadUseHazard reports whether the EX-stage occupant eu forces the ID-stage
// occupant u to stall one cycle: eu is a load whose destination feeds one of
// u's register operands, and the loaded value is only available after MEM.
func loadUseHazard(eu, u *isa.UOp) bool {
	return eu.Load && eu.Dest != isa.Zero &&
		(eu.Dest == u.SrcA || (u.BReg && eu.Dest == u.SrcB))
}

// forwardOperands resolves the EX-stage operand values of u against the
// EX/MEM occupant (exm, producing exmOut) and the MEM/WB occupant (mwb,
// producing mwbVal); a nil occupant is a bubble. MEM/WB forwards first so
// the younger EX/MEM result can override it; EX/MEM never forwards a load
// (load-use pairs are separated by the ID stall). Predecoded operand routing
// makes this uniform: A forwards when SrcA is a real register, B only when
// the micro-op reads B from the register file.
func forwardOperands(u *isa.UOp, a, b uint32, exm *isa.UOp, exmOut uint32, mwb *isa.UOp, mwbVal uint32) (uint32, uint32) {
	if mwb != nil {
		if d := mwb.Dest; d != isa.Zero {
			if d == u.SrcA {
				a = mwbVal
			}
			if u.BReg && d == u.SrcB {
				b = mwbVal
			}
		}
	}
	if exm != nil {
		if d := exm.Dest; d != isa.Zero && !exm.Load {
			if d == u.SrcA {
				a = exmOut
			}
			if u.BReg && d == u.SrcB {
				b = exmOut
			}
		}
	}
	return a, b
}
