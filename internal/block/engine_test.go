package block_test

import (
	"errors"
	"math/rand"
	"strconv"
	"testing"

	"desmask/internal/asm"
	"desmask/internal/block"
	"desmask/internal/cpu"
	"desmask/internal/energy"
	"desmask/internal/gang"
	"desmask/internal/isa"
	"desmask/internal/mem"
)

// newCore returns a one-lane run of the cycle-accurate pipeline over p.
func newCore(t *testing.T, p *asm.Program) *gang.Engine {
	t.Helper()
	c, err := gang.New(p, predecoded(t, p), energy.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Reset(1); err != nil {
		t.Fatal(err)
	}
	return c
}

// cosim runs one program on the cycle-accurate pipeline (with the energy
// meter on) and on the block engine, under the same budget, and demands
// either bit-identical completion — Stats, registers, data memory — or a
// deopt exactly when the cycle-accurate run fails. Returns whether the block
// engine completed.
func cosim(t *testing.T, p *asm.Program, budget uint64) bool {
	t.Helper()
	cfg := energy.DefaultConfig()
	c := newCore(t, p)
	meter := c.EnableMeter()
	e, err := block.New(p, predecoded(t, p), mem.New(), &cfg)
	if err != nil {
		t.Fatal(err)
	}

	cerr := c.Run(budget)
	berr := e.Run(budget)
	if cerr != nil {
		// The cycle-accurate run faulted or hit its budget: the engine must
		// have refused to complete (the session layer then replays).
		if !errors.Is(berr, block.ErrDeopt) {
			t.Fatalf("cycle core failed (%v) but block engine returned %v", cerr, berr)
		}
		return false
	}
	if berr != nil {
		t.Fatalf("block engine deopted on a clean run: %v", berr)
	}
	if !e.Halted() {
		t.Fatal("block engine returned nil without halting")
	}
	if cs, bs := c.Stats(), e.Stats(); cs != bs {
		t.Errorf("stats diverge: cycle %+v, block %+v", cs, bs)
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if c.Lane(0).Regs[r] != e.Reg(r) {
			t.Errorf("register %v: cycle %#x, block %#x", r, c.Lane(0).Regs[r], e.Reg(r))
		}
	}
	for a := p.DataBase; a < p.DataEnd(); a += 4 {
		cv, _ := c.Lane(0).Mem.LoadWord(a)
		bv, _ := e.Mem().LoadWord(a)
		if cv != bv {
			t.Errorf("mem[%#x]: cycle %#x, block %#x", a, cv, bv)
		}
	}
	// The static floor never exceeds the metered total (transition terms are
	// non-negative), and a non-trivial program is never all-static.
	if e.StaticPJ() <= 0 || e.StaticPJ() > meter.TotalPJ() {
		t.Errorf("static energy %.3f pJ outside (0, metered %.3f]", e.StaticPJ(), meter.TotalPJ())
	}
	return true
}

func cosimSrc(t *testing.T, src string) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if !cosim(t, p, 10_000_000) {
		t.Fatal("block engine deopted on a program expected to complete")
	}
}

func TestBlockHazardKitchenSink(t *testing.T) {
	cosimSrc(t, `
		.data
buf:	.word 3, 1, 4, 1, 5, 9, 2, 6
out:	.space 32
		.text
main:	la   $s0, buf
		la   $s1, out
		li   $t0, 0
		li   $s2, 0
loop:	sll  $t1, $t0, 2
		addu $t2, $s0, $t1
		lw   $t3, 0($t2)     # load-use with next
		addu $s2, $s2, $t3
		addu $t4, $s1, $t1
		sw   $s2, 0($t4)
		addiu $t0, $t0, 1
		slti $at, $t0, 8
		bne  $at, $zero, loop
		halt
	`)
}

func TestBlockCallsAndRecursion(t *testing.T) {
	cosimSrc(t, `
		.data
res:	.word 0
		.text
main:	li   $a0, 9
		jal  fib
		sw   $v0, res
		halt
fib:	slti $at, $a0, 2
		beq  $at, $zero, rec
		move $v0, $a0
		jr   $ra
rec:	addiu $sp, $sp, -12
		sw   $ra, 0($sp)
		sw   $a0, 4($sp)
		addiu $a0, $a0, -1
		jal  fib
		sw   $v0, 8($sp)
		lw   $a0, 4($sp)
		addiu $a0, $a0, -2
		jal  fib
		lw   $t0, 8($sp)
		addu $v0, $v0, $t0
		lw   $ra, 0($sp)
		addiu $sp, $sp, 12
		jr   $ra
	`)
}

func TestBlockBranchShadowGeometry(t *testing.T) {
	// Taken branches whose shadow holds a halt (single-flush redirect) and a
	// branch landing on the last instruction exercise the flush-count edge
	// cases of the redirect cycle.
	cosimSrc(t, `
		.text
main:	li   $t0, 1
		bgtz $t0, on
		halt
on:		addiu $t1, $t0, 41
		bgtz $t1, end
		addiu $t1, $t1, 1
end:	halt
	`)
}

func TestBlockSecureInstructions(t *testing.T) {
	cosimSrc(t, `
		.data
key:	.word 0x0f0f0f0f
out:	.word 0
		.text
main:	lw.s $t0, key
		li   $t1, 0x3c3c
		xor.s $t2, $t0, $t1
		xor.s $t2, $t2, $t0
		sw   $t2, out
		halt
	`)
}

func TestBlockLoadUseAcrossTermination(t *testing.T) {
	// A load feeding the branch that terminates its block: the stall belongs
	// to the block and shifts every later EX cycle.
	cosimSrc(t, `
		.data
v:		.word 7
		.text
main:	li   $t2, 0
loop:	lw   $t0, v
		bgtz $t0, dec        # load-use stall into the terminator
		halt
dec:	addiu $t2, $t2, 1
		slti $at, $t2, 3
		bne  $at, $zero, clr
		sw   $zero, v
clr:	j    loop
	`)
}

// randomBranchy generates a terminating program with random straight-line
// segments, forward conditional skips, a bounded outer loop, and a leaf call
// — the control-flow shapes the block translator must re-time exactly.
func randomBranchy(rng *rand.Rand, segments int) string {
	ops := []string{"addu", "subu", "and", "or", "xor", "nor", "sllv", "srlv", "srav", "slt", "sltu", "mul", "xor.s", "addu.s"}
	regs := []string{"$t0", "$t1", "$t2", "$t3", "$t4", "$t5", "$s0", "$s1", "$s2"}
	branches := []string{"beq", "bne"}
	src := "\t.data\nbuf:\t.space 64\n\t.text\nmain:\tla $gp, buf\n"
	for i, r := range regs {
		src += "\tli " + r + ", " + strconv.FormatInt(int64(rng.Uint32()>>uint(i)), 10) + "\n"
	}
	src += "\tli $s7, " + strconv.Itoa(2+rng.Intn(4)) + "\n"
	src += "loop:\n"
	emitOps := func(n int) {
		for i := 0; i < n; i++ {
			switch rng.Intn(7) {
			case 0, 1, 2, 3:
				src += "\t" + ops[rng.Intn(len(ops))] + " " + regs[rng.Intn(len(regs))] + ", " +
					regs[rng.Intn(len(regs))] + ", " + regs[rng.Intn(len(regs))] + "\n"
			case 4:
				src += "\tsll " + regs[rng.Intn(len(regs))] + ", " + regs[rng.Intn(len(regs))] +
					", " + strconv.Itoa(rng.Intn(32)) + "\n"
			case 5:
				off := strconv.Itoa(4 * rng.Intn(16))
				src += "\tsw " + regs[rng.Intn(len(regs))] + ", " + off + "($gp)\n"
				src += "\tlw " + regs[rng.Intn(len(regs))] + ", " + off + "($gp)\n"
			case 6:
				src += "\taddiu " + regs[rng.Intn(len(regs))] + ", " + regs[rng.Intn(len(regs))] +
					", " + strconv.Itoa(rng.Intn(8000)-4000) + "\n"
			}
		}
	}
	for s := 0; s < segments; s++ {
		emitOps(2 + rng.Intn(6))
		label := "skip" + strconv.Itoa(s)
		switch rng.Intn(4) {
		case 0:
			src += "\t" + branches[rng.Intn(len(branches))] + " " + regs[rng.Intn(len(regs))] +
				", " + regs[rng.Intn(len(regs))] + ", " + label + "\n"
		case 1:
			src += "\tblez " + regs[rng.Intn(len(regs))] + ", " + label + "\n"
		case 2:
			src += "\tjal leaf\n"
		}
		emitOps(1 + rng.Intn(3))
		src += label + ":\n"
	}
	src += "\taddiu $s7, $s7, -1\n\tbgtz $s7, loop\n"
	emitOps(2)
	src += "\thalt\nleaf:\txor $v0, $a0, $s7\n\tsllv $v0, $v0, $s7\n\tjr $ra\n"
	return src
}

// TestBlockRandomPrograms fuzzes the block engine against the cycle-accurate
// core with random branchy programs: every completion must be bit-identical
// in stats, registers and memory.
func TestBlockRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(2003))
	completed := 0
	for trial := 0; trial < 40; trial++ {
		src := randomBranchy(rng, 5+rng.Intn(6))
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		if cosim(t, p, 10_000_000) {
			completed++
		}
		if t.Failed() {
			t.Fatalf("trial %d diverged; program:\n%s", trial, src)
		}
	}
	if completed < 35 {
		t.Errorf("only %d/40 random programs completed in block mode", completed)
	}
}

// TestBlockBudgetSweep pins the budget precheck against the cycle-accurate
// limit semantics: for every budget around a program's exact cycle count, the
// engine completes identically iff the cycle core halts, and deopts iff the
// cycle core reports a *cpu.CycleLimitError.
func TestBlockBudgetSweep(t *testing.T) {
	p, err := asm.Assemble(`
		.text
main:	li   $t0, 5
loop:	addiu $t0, $t0, -1
		bgtz $t0, loop
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	c := newCore(t, p)
	if err := c.Run(1000); err != nil {
		t.Fatal(err)
	}
	total := c.Stats().Cycles
	for budget := uint64(1); budget <= total+3; budget++ {
		cc := newCore(t, p)
		cerr := cc.Run(budget)
		e, err := block.New(p, predecoded(t, p), mem.New(), nil)
		if err != nil {
			t.Fatal(err)
		}
		berr := e.Run(budget)
		switch {
		case cerr == nil && berr != nil:
			t.Errorf("budget %d: cycle core halted, engine said %v", budget, berr)
		case cerr != nil && !errors.Is(berr, block.ErrDeopt):
			t.Errorf("budget %d: cycle core failed (%v), engine said %v", budget, cerr, berr)
		case cerr == nil && berr == nil && cc.Stats() != e.Stats():
			t.Errorf("budget %d: stats diverge: %+v vs %+v", budget, cc.Stats(), e.Stats())
		}
		if cerr != nil && !errors.Is(cerr, cpu.ErrCycleLimit) {
			t.Fatalf("budget %d: unexpected cycle-core error %v", budget, cerr)
		}
	}
}

func TestBlockDeoptEdges(t *testing.T) {
	t.Run("mem fault", func(t *testing.T) {
		p, _ := asm.Assemble(`
			.text
main:	li   $t0, 2
		lw   $t1, 1($t0)     # misaligned load faults in MEM
		halt
		`)
		e, err := block.New(p, predecoded(t, p), mem.New(), nil)
		if err != nil {
			t.Fatal(err)
		}
		berr := e.Run(1000)
		if !errors.Is(berr, block.ErrDeopt) {
			t.Fatalf("err = %v, want ErrDeopt", berr)
		}
		var d *block.DeoptError
		if !errors.As(berr, &d) || d.Cause == nil {
			t.Fatalf("deopt %v carries no cause", berr)
		}
	})
	t.Run("jr misalign", func(t *testing.T) {
		p, _ := asm.Assemble(`
			.text
main:	li   $t0, 2
		jr   $t0
		halt
		`)
		e, _ := block.New(p, predecoded(t, p), mem.New(), nil)
		if !errors.Is(e.Run(1000), block.ErrDeopt) {
			t.Fatal("misaligned jr should deopt")
		}
	})
	t.Run("runs off text end", func(t *testing.T) {
		p, _ := asm.Assemble("main: nop\nnop\n")
		e, _ := block.New(p, predecoded(t, p), mem.New(), nil)
		if !errors.Is(e.Run(1000), block.ErrDeopt) {
			t.Fatal("running off the text segment should deopt")
		}
	})
	t.Run("jump outside text", func(t *testing.T) {
		p, _ := asm.Assemble(`
			.text
main:	li   $t0, 0x10
		jr   $t0
		halt
		`)
		e, _ := block.New(p, predecoded(t, p), mem.New(), nil)
		if !errors.Is(e.Run(1000), block.ErrDeopt) {
			t.Fatal("transfer outside the text segment should deopt")
		}
	})
	t.Run("infinite loop hits budget", func(t *testing.T) {
		p, _ := asm.Assemble("main: j main\nhalt\n")
		e, _ := block.New(p, predecoded(t, p), mem.New(), nil)
		if !errors.Is(e.Run(5000), block.ErrDeopt) {
			t.Fatal("budget expiry should deopt")
		}
	})
}

func TestBlockResetAndReuse(t *testing.T) {
	p, err := asm.Assemble(`
		.data
v:		.word 0
		.text
main:	lw   $t0, v
		addiu $t0, $t0, 1
		sw   $t0, v
		li   $t1, 3
loop:	addiu $t1, $t1, -1
		bgtz $t1, loop
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := energy.DefaultConfig()
	e, err := block.New(p, predecoded(t, p), mem.New(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(1000); err != nil {
		t.Fatal(err)
	}
	first, firstPJ := e.Stats(), e.StaticPJ()
	blocks := e.Blocks()
	if blocks == 0 {
		t.Fatal("no blocks compiled")
	}
	if err := e.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(1000); err != nil {
		t.Fatal(err)
	}
	if e.Stats() != first || e.StaticPJ() != firstPJ {
		t.Errorf("rerun diverged: %+v/%.3f vs %+v/%.3f", e.Stats(), e.StaticPJ(), first, firstPJ)
	}
	if e.Blocks() != blocks {
		t.Errorf("block cache regrew: %d vs %d", e.Blocks(), blocks)
	}
	if err := e.Run(1000); err == nil {
		t.Error("running a halted engine should fail")
	}
}

func TestBlockNewErrors(t *testing.T) {
	if _, err := gang.Predecode(&asm.Program{}); err == nil {
		t.Error("empty program accepted")
	}
}

// predecoded returns p's micro-op table, failing the test on error.
func predecoded(t *testing.T, p *asm.Program) []isa.UOp {
	t.Helper()
	uops, err := gang.Predecode(p)
	if err != nil {
		t.Fatal(err)
	}
	return uops
}
