package cpu_test

import (
	"errors"
	"math/rand"
	"testing"

	"desmask/internal/asm"
	"desmask/internal/cpu"
	"desmask/internal/isa"
	"desmask/internal/mem"
)

// cosim runs the same program on the pipeline and the golden-model
// RefModel and compares retired-instruction counts, final register files and
// a region of memory.
func cosim(t *testing.T, p *asm.Program, poke map[uint32]uint32, memCheck []uint32) {
	t.Helper()
	c := newCore(t, p)
	r, err := cpu.NewRef(p, mem.New())
	if err != nil {
		t.Fatal(err)
	}
	for addr, v := range poke {
		if err := c.Mem().StoreWord(addr, v); err != nil {
			t.Fatal(err)
		}
		if err := r.Mem().StoreWord(addr, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Run(10_000_000); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if err := r.Run(10_000_000); err != nil {
		t.Fatalf("ref: %v", err)
	}
	if c.Stats().Insts != r.Insts() {
		t.Errorf("retired %d instructions, ref executed %d", c.Stats().Insts, r.Insts())
	}
	for reg := isa.Reg(0); reg < isa.NumRegs; reg++ {
		// $at may legitimately diverge? No: both models execute identical
		// instructions, so every register must agree.
		if c.Reg(reg) != r.Reg(reg) {
			t.Errorf("register %v: pipeline %#x, ref %#x", reg, c.Reg(reg), r.Reg(reg))
		}
	}
	for _, addr := range memCheck {
		cv, _ := c.Mem().LoadWord(addr)
		rv, _ := r.Mem().LoadWord(addr)
		if cv != rv {
			t.Errorf("mem[%#x]: pipeline %#x, ref %#x", addr, cv, rv)
		}
	}
}

func cosimSrc(t *testing.T, src string) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	var checks []uint32
	for a := p.DataBase; a < p.DataEnd(); a += 4 {
		checks = append(checks, a)
	}
	cosim(t, p, nil, checks)
}

func TestCosimHazardKitchenSink(t *testing.T) {
	cosimSrc(t, `
		.data
buf:	.word 3, 1, 4, 1, 5, 9, 2, 6
out:	.space 32
		.text
main:	la   $s0, buf
		la   $s1, out
		li   $t0, 0          # i
		li   $s2, 0          # sum
loop:	sll  $t1, $t0, 2
		addu $t2, $s0, $t1
		lw   $t3, 0($t2)     # load-use with next
		addu $s2, $s2, $t3   # immediate use
		addu $t4, $s1, $t1
		sw   $s2, 0($t4)     # running sums
		addiu $t0, $t0, 1
		slti $at, $t0, 8
		bne  $at, $zero, loop
		halt
	`)
}

func TestCosimCallsAndRecursion(t *testing.T) {
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

func TestCosimBranchVariants(t *testing.T) {
	cosimSrc(t, `
		.data
out:	.space 16
		.text
main:	li   $t9, 0
		li   $t0, -5
l1:		blez $t0, t1
		addiu $t9, $t9, 100
t1:		addiu $t9, $t9, 1
		bgtz $t0, l2
		addiu $t9, $t9, 2
l2:		addiu $t0, $t0, 1
		slti $at, $t0, 3
		bne  $at, $zero, l1
		sw   $t9, out
		halt
	`)
}

func TestCosimDESProgram(t *testing.T) {
	// The heavyweight check: the full compiled DES program agrees between
	// pipeline and golden model. (Uses the compiler output indirectly via
	// the desprog-generated assembly checked in package desprog; here we
	// run a medium-size hand-written kernel instead to keep package
	// boundaries clean.)
	cosimSrc(t, `
		.data
tab:	.word 7, 1, 9, 4, 0, 3, 8, 2, 6, 5
acc:	.word 0
		.text
main:	la   $s0, tab
		li   $t0, 0
		li   $s1, 1
perm:	sll  $t1, $t0, 2
		addu $t1, $s0, $t1
		lw   $t2, 0($t1)      # tab[i]
		sll  $t3, $t2, 2
		addu $t3, $s0, $t3
		lw   $t4, 0($t3)      # tab[tab[i]]
		xor  $s1, $s1, $t4
		mul  $s1, $s1, $t2
		sra  $t5, $s1, 3
		xor  $s1, $s1, $t5
		addiu $t0, $t0, 1
		slti $at, $t0, 10
		bne  $at, $zero, perm
		sw   $s1, acc
		halt
	`)
}

// randomStraightLine generates a terminating random ALU/memory program:
// straight-line code over a scratch buffer, no branches.
func randomStraightLine(rng *rand.Rand, n int) string {
	ops := []string{"addu", "subu", "and", "or", "xor", "nor", "sllv", "srlv", "srav", "slt", "sltu", "mul"}
	regs := []string{"$t0", "$t1", "$t2", "$t3", "$t4", "$t5", "$s0", "$s1", "$s2"}
	src := "\t.data\nbuf:\t.space 64\n\t.text\nmain:\tla $gp, buf\n"
	// Seed registers.
	for i, r := range regs {
		src += "\tli " + r + ", " + itoa(int64(rng.Uint32()>>uint(i))) + "\n"
	}
	for i := 0; i < n; i++ {
		switch rng.Intn(7) {
		case 0, 1, 2, 3: // R-type
			op := ops[rng.Intn(len(ops))]
			src += "\t" + op + " " + regs[rng.Intn(len(regs))] + ", " +
				regs[rng.Intn(len(regs))] + ", " + regs[rng.Intn(len(regs))] + "\n"
		case 4: // shift imm
			src += "\tsll " + regs[rng.Intn(len(regs))] + ", " + regs[rng.Intn(len(regs))] +
				", " + itoa(int64(rng.Intn(32))) + "\n"
		case 5: // store then load (word offsets within buf)
			off := itoa(int64(4 * rng.Intn(16)))
			src += "\tsw " + regs[rng.Intn(len(regs))] + ", " + off + "($gp)\n"
			src += "\tlw " + regs[rng.Intn(len(regs))] + ", " + off + "($gp)\n"
		case 6: // immediate ALU
			src += "\taddiu " + regs[rng.Intn(len(regs))] + ", " + regs[rng.Intn(len(regs))] +
				", " + itoa(int64(rng.Intn(8000)-4000)) + "\n"
		}
	}
	return src + "\thalt\n"
}

func itoa(v int64) string {
	if v < 0 {
		return "-" + itoa(-v)
	}
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa(v/10) + string(rune('0'+v%10))
}

// TestCosimRandomPrograms fuzzes the pipeline against the golden model with
// random straight-line programs (the dense hazard patterns live here:
// back-to-back dependencies, store-load pairs, shift chains).
func TestCosimRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(2003))
	for trial := 0; trial < 30; trial++ {
		src := randomStraightLine(rng, 120)
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		var checks []uint32
		for a := p.DataBase; a < p.DataEnd(); a += 4 {
			checks = append(checks, a)
		}
		cosim(t, p, nil, checks)
		if t.Failed() {
			t.Fatalf("trial %d diverged; program:\n%s", trial, src)
		}
	}
}

func TestRefModelErrors(t *testing.T) {
	if _, err := cpu.NewRef(&asm.Program{}, mem.New()); err == nil {
		t.Error("empty program accepted")
	}
	p, err := asm.Assemble("main: nop\nnop\n") // runs off the end
	if err != nil {
		t.Fatal(err)
	}
	r, err := cpu.NewRef(p, mem.New())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(100); err == nil {
		t.Error("expected ref fetch fault")
	}
	p2, _ := asm.Assemble("main: j main\nhalt\n")
	r2, _ := cpu.NewRef(p2, mem.New())
	if err := r2.Run(50); !errors.Is(err, cpu.ErrCycleLimit) {
		t.Errorf("err = %v, want cpu.ErrCycleLimit", err)
	}
	p3, _ := asm.Assemble("main: halt\n")
	r3, _ := cpu.NewRef(p3, mem.New())
	if err := r3.Run(10); err != nil {
		t.Fatal(err)
	}
	if !r3.Halted() || r3.Insts() != 1 {
		t.Errorf("halted=%v insts=%d", r3.Halted(), r3.Insts())
	}
	if err := r3.Step(); err == nil {
		t.Error("stepping halted ref model should fail")
	}
}
