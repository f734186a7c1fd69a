package gang_test

import (
	"errors"
	"fmt"
	"testing"

	"desmask/internal/asm"
	"desmask/internal/cpu"
	"desmask/internal/energy"
	"desmask/internal/gang"
)

// mixKernel is a data-varying, control-uniform program: every lane loads its
// own input word (poked at DataBase before the run) and runs the same mixing
// loop — loads, stores, secure xors, shifts, a load-use stall, and branches
// that depend only on the loop counter, never on lane data. All lanes
// therefore stay in lockstep to halt.
const mixKernel = `
		.data
in:		.word 0
out:	.word 0
tmp:	.space 16
		.text
main:	lw   $s0, in
		la   $s3, tmp
		li   $t0, 0
		li   $s1, 0
loop:	xor.s $s2, $s0, $s1
		addu.s $s1, $s1, $s2
		sll  $t1, $t0, 2
		addu $t3, $s3, $t1
		sw   $s1, 0($t3)
		lw   $t2, 0($t3)       # load-use stall with the next addu
		addu $s0, $s0, $t2
		srl  $s0, $s0, 1
		addiu $t0, $t0, 1
		slti $at, $t0, 4
		bne  $at, $zero, loop
		sw   $s1, out
		halt
`

// runScalar executes the program as a one-lane run with input poked at
// DataBase, sampling [start, end): the reference every lane of a wider gang
// must reproduce.
func runScalar(t *testing.T, p *asm.Program, input uint32, budget, start, end uint64) (*gang.Engine, []float64, error) {
	t.Helper()
	e, err := gang.New(p, energy.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Reset(1); err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, end-start)
	e.SetSampleWindow(start, end)
	e.SetLaneSampleBuf(0, buf)
	if err := e.Lane(0).Mem.StoreWord(p.DataBase, input); err != nil {
		t.Fatal(err)
	}
	err = e.Run(budget)
	if n := e.Stats().Cycles; n < end {
		buf = buf[:max(n, start)-start]
	}
	return e, buf, err
}

// gangCosim runs the program on a gang with per-lane inputs and as one
// one-lane run per lane, and demands every lockstep-completed lane be
// bit-identical to its one-lane run: registers, data memory, stats, and the
// windowed per-cycle energy samples.
func gangCosim(t *testing.T, src string, inputs []uint32, budget, start, end uint64) *gang.Engine {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	n := len(inputs)
	e, err := gang.New(p, energy.DefaultConfig(), n)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Reset(n); err != nil {
		t.Fatal(err)
	}
	e.SetSampleWindow(start, end)
	bufs := make([][]float64, n)
	for i := range bufs {
		bufs[i] = make([]float64, end-start)
		e.SetLaneSampleBuf(i, bufs[i])
	}
	for i, in := range inputs {
		if err := e.Lane(i).Mem.StoreWord(p.DataBase, in); err != nil {
			t.Fatal(err)
		}
	}
	e.Run(budget)

	for i := range inputs {
		if err := e.LaneErr(i); err != nil {
			continue // deopted lanes are the scalar replay's problem
		}
		c, want, cerr := runScalar(t, p, inputs[i], budget, start, end)
		if cerr != nil && !errors.Is(cerr, cpu.ErrCycleLimit) {
			t.Fatalf("lane %d: gang completed but the one-lane run failed: %v", i, cerr)
		}
		if cs, gs := c.Stats(), e.Stats(); cs != gs {
			t.Errorf("lane %d stats: scalar %+v, gang %+v", i, cs, gs)
		}
		if c.Lane(0).Regs != e.Lane(i).Regs {
			t.Errorf("lane %d regs: scalar %#x, gang %#x", i, c.Lane(0).Regs, e.Lane(i).Regs)
		}
		for a := p.DataBase; a < p.DataEnd(); a += 4 {
			cv, _ := c.Lane(0).Mem.LoadWord(a)
			gv, _ := e.Lane(i).Mem.LoadWord(a)
			if cv != gv {
				t.Errorf("lane %d mem[%#x]: scalar %#x, gang %#x", i, a, cv, gv)
			}
		}
		got := bufs[i][:len(want)]
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("lane %d sample %d: scalar %v, gang %v", i, j, want[j], got[j])
			}
		}
	}
	return e
}

func TestGangLockstepBitIdentity(t *testing.T) {
	inputs := []uint32{0, 1, 0xdeadbeef, 0x0f0f0f0f, 0xffffffff, 42, 0x13579bdf, 0x80000000}
	e := gangCosim(t, mixKernel, inputs, 100000, 0, 200)
	for i := range inputs {
		if err := e.LaneErr(i); err != nil {
			t.Fatalf("lane %d deopted on a lockstep program: %v", i, err)
		}
	}
	if !e.Halted() {
		t.Fatal("gang did not halt")
	}
}

func TestGangMidRunWindow(t *testing.T) {
	// A window opening mid-run: pre-window cycles run the quiet meter path,
	// and the in-window samples must still match a scalar core that metered
	// every cycle from reset.
	inputs := []uint32{7, 0xcafebabe, 0x55555555}
	gangCosim(t, mixKernel, inputs, 100000, 25, 60)
}

func TestGangTraceBitIdentity(t *testing.T) {
	p, err := asm.Assemble(mixKernel)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []uint32{3, 0xfeedface}
	e, err := gang.New(p, energy.DefaultConfig(), len(inputs))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Reset(len(inputs)); err != nil {
		t.Fatal(err)
	}
	e.EnableTrace(0)
	for i, in := range inputs {
		if err := e.Lane(i).Mem.StoreWord(p.DataBase, in); err != nil {
			t.Fatal(err)
		}
	}
	e.Run(100000)

	c, err := gang.New(p, energy.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range inputs {
		if err := e.LaneErr(i); err != nil {
			t.Fatalf("lane %d: %v", i, err)
		}
		if err := c.Reset(1); err != nil {
			t.Fatal(err)
		}
		c.EnableTrace(0)
		if err := c.Lane(0).Mem.StoreWord(p.DataBase, in); err != nil {
			t.Fatal(err)
		}
		if err := c.Run(100000); err != nil {
			t.Fatal(err)
		}
		gt, st := e.LaneTrace(i), c.LaneTrace(0)
		if gt.Len() != st.Len() {
			t.Fatalf("lane %d trace length: gang %d, scalar %d", i, gt.Len(), st.Len())
		}
		for j := range st.Totals {
			if gt.Totals[j] != st.Totals[j] || gt.PCs[j] != st.PCs[j] {
				t.Fatalf("lane %d cycle %d: gang (%v, %#x), scalar (%v, %#x)",
					i, j, gt.Totals[j], gt.PCs[j], st.Totals[j], st.PCs[j])
			}
		}
	}
}

func TestGangDataDependentBranchPeels(t *testing.T) {
	// Lanes branch on their own data: lanes disagreeing with the gang
	// reference (lane 0) peel with a branch-divergence deopt; agreeing lanes
	// complete bit-identically to scalar runs.
	src := `
		.data
in:		.word 0
out:	.word 0
		.text
main:	lw   $t0, in
		li   $t1, 7
		beq  $t0, $t1, seven
		li   $s0, 100
		j    done
seven:	li   $s0, 200
done:	sw   $s0, out
		halt
`
	inputs := []uint32{7, 3, 7, 9}
	e := gangCosim(t, src, inputs, 100000, 0, 50)
	for i, in := range inputs {
		err := e.LaneErr(i)
		if in == 7 {
			if err != nil {
				t.Errorf("lane %d (agrees with reference): unexpected deopt %v", i, err)
			}
			continue
		}
		if !errors.Is(err, gang.ErrDeopt) {
			t.Errorf("lane %d (diverges): err = %v, want ErrDeopt", i, err)
		}
		var d *gang.DeoptError
		if !errors.As(err, &d) || d.Reason != "branch divergence" {
			t.Errorf("lane %d: deopt = %v, want branch divergence", i, err)
		}
	}
}

func TestGangLaneFaultPeels(t *testing.T) {
	// Lane 1's input is a misaligned load address: it faults in MEM and
	// peels with the fault as cause; the other lanes complete.
	src := `
		.data
in:		.word 0
out:	.word 0
		.text
main:	lw   $t0, in
		lw   $t1, 0($t0)
		sw   $t1, out
		halt
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	aligned := p.DataBase // points back at the input word: a legal load
	inputs := []uint32{aligned, aligned + 1, aligned}
	e := gangCosim(t, src, inputs, 100000, 0, 30)
	for i, in := range inputs {
		err := e.LaneErr(i)
		if in%4 == 0 {
			if err != nil {
				t.Errorf("lane %d: unexpected deopt %v", i, err)
			}
			continue
		}
		var d *gang.DeoptError
		if !errors.As(err, &d) || d.Reason != "memory fault" || d.Cause == nil {
			t.Errorf("lane %d: deopt = %v, want memory fault with cause", i, err)
		}
	}
}

func TestGangBudgetExpiryKeepsLanesLive(t *testing.T) {
	// Budget expiry is not a deopt: lanes still in lockstep hold the exact
	// scalar partial-run state and stay live (LaneErr nil, Halted false).
	p, err := asm.Assemble("main: j main\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	e, err := gang.New(p, energy.DefaultConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Reset(3); err != nil {
		t.Fatal(err)
	}
	e.Run(500)
	if e.Halted() {
		t.Fatal("halted on an infinite loop")
	}
	if got := e.Stats().Cycles; got != 500 {
		t.Fatalf("stepped %d cycles, want exactly the 500 budget", got)
	}
	for i := 0; i < 3; i++ {
		if err := e.LaneErr(i); err != nil {
			t.Errorf("lane %d: err = %v, want live lane at budget expiry", i, err)
		}
	}
}

func TestGangBudgetSweep(t *testing.T) {
	// For every budget around the program's exact cycle count the gang must
	// mirror the scalar core bit-for-bit: halted iff the scalar halted,
	// identical stats and registers even for budget-truncated partial runs.
	src := `
		.text
main:	li   $t0, 5
loop:	addiu $t0, $t0, -1
		bgtz $t0, loop
		halt
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := gang.New(p, energy.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.Reset(1); err != nil {
		t.Fatal(err)
	}
	if err := cc.Run(1000); err != nil {
		t.Fatal(err)
	}
	total := cc.Stats().Cycles
	e, err := gang.New(p, energy.DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for budget := uint64(1); budget <= total+3; budget++ {
		if err := cc.Reset(1); err != nil {
			t.Fatal(err)
		}
		cerr := cc.Run(budget)
		if cerr != nil && !errors.Is(cerr, cpu.ErrCycleLimit) {
			t.Fatalf("budget %d: unexpected scalar error %v", budget, cerr)
		}
		if err := e.Reset(2); err != nil {
			t.Fatal(err)
		}
		if gerr := e.Run(budget); (gerr == nil) != (cerr == nil) {
			t.Errorf("budget %d: gang err %v, one-lane err %v", budget, gerr, cerr)
		}
		for i := 0; i < 2; i++ {
			if gerr := e.LaneErr(i); gerr != nil {
				t.Errorf("budget %d lane %d: unexpected deopt %v", budget, i, gerr)
			}
		}
		if e.Halted() != (cerr == nil) {
			t.Errorf("budget %d: gang halted=%v, scalar err=%v", budget, e.Halted(), cerr)
		}
		if cc.Stats() != e.Stats() {
			t.Errorf("budget %d: stats diverge: %+v vs %+v", budget, cc.Stats(), e.Stats())
		}
		if cc.Lane(0).Regs != e.Lane(0).Regs {
			t.Errorf("budget %d regs: scalar %#x, gang %#x", budget, cc.Lane(0).Regs, e.Lane(0).Regs)
		}
	}
}

func TestGangFetchFaultDeoptsAll(t *testing.T) {
	p, err := asm.Assemble("main: nop\nnop\n") // runs off the text segment
	if err != nil {
		t.Fatal(err)
	}
	e, err := gang.New(p, energy.DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Reset(2); err != nil {
		t.Fatal(err)
	}
	e.Run(1000)
	for i := 0; i < 2; i++ {
		var d *gang.DeoptError
		if err := e.LaneErr(i); !errors.As(err, &d) || d.Reason != "fetch fault" {
			t.Errorf("lane %d: err = %v, want fetch-fault deopt", i, err)
		}
	}
}

func TestGangResetReuse(t *testing.T) {
	// A reused engine (second Reset+Run, same inputs) must reproduce the
	// first run bit-identically — registers, stats, and samples.
	p, err := asm.Assemble(mixKernel)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	e, err := gang.New(p, energy.DefaultConfig(), n)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []uint32{11, 22, 33, 44}
	run := func() ([][]float64, []uint32, cpu.Stats) {
		if err := e.Reset(n); err != nil {
			t.Fatal(err)
		}
		e.SetSampleWindow(0, 150)
		bufs := make([][]float64, n)
		for i := range bufs {
			bufs[i] = make([]float64, 150)
			e.SetLaneSampleBuf(i, bufs[i])
		}
		for i, in := range inputs {
			if err := e.Lane(i).Mem.StoreWord(p.DataBase, in); err != nil {
				t.Fatal(err)
			}
		}
		e.Run(100000)
		outs := make([]uint32, n)
		for i := 0; i < n; i++ {
			if err := e.LaneErr(i); err != nil {
				t.Fatal(err)
			}
			outs[i], _ = e.Lane(i).Mem.LoadWord(p.DataBase + 4)
		}
		return bufs, outs, e.Stats()
	}
	b1, o1, s1 := run()
	b2, o2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverge across reuse: %+v vs %+v", s1, s2)
	}
	for i := 0; i < n; i++ {
		if o1[i] != o2[i] {
			t.Errorf("lane %d output: %#x vs %#x", i, o1[i], o2[i])
		}
		for j := range b1[i] {
			if b1[i][j] != b2[i][j] {
				t.Fatalf("lane %d sample %d diverges across reuse", i, j)
			}
		}
	}
}

func TestGangWidthOne(t *testing.T) {
	// Degenerate gang of one lane: still exact (it is the reference).
	gangCosim(t, mixKernel, []uint32{0xabad1dea}, 100000, 0, 100)
}

func TestGangNewErrors(t *testing.T) {
	if _, err := gang.New(&asm.Program{}, energy.DefaultConfig(), 4); err == nil {
		t.Error("empty program accepted")
	}
	p, err := asm.Assemble("main: halt\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gang.New(p, energy.DefaultConfig(), 0); err == nil {
		t.Error("width 0 accepted")
	}
	e, err := gang.New(p, energy.DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Reset(3); err == nil {
		t.Error("oversize gang accepted")
	}
}

// TestGangManyWidths sweeps gang sizes over a shared engine to catch any
// width-dependent state leakage between runs.
func TestGangManyWidths(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			inputs := make([]uint32, n)
			for i := range inputs {
				inputs[i] = uint32(i) * 0x9e3779b9
			}
			gangCosim(t, mixKernel, inputs, 100000, 0, 120)
		})
	}
}
