package cpu_test

import (
	"errors"
	"testing"

	"desmask/internal/asm"
	"desmask/internal/cpu"
	"desmask/internal/energy"
	"desmask/internal/gang"
	"desmask/internal/isa"
	"desmask/internal/mem"
)

// core is a one-lane run of the pipeline (internal/gang): the scalar view
// the core's tests drive.
type core struct {
	*gang.Engine
	prog *asm.Program
}

func (c core) Reg(r isa.Reg) uint32 { return c.Lane(0).Regs[r] }

func (c core) Mem() *mem.Memory { return c.Lane(0).Mem }

func newCore(t *testing.T, p *asm.Program) core {
	t.Helper()
	e, err := gang.New(p, predecoded(t, p), energy.DefaultConfig(), 1)
	if err != nil {
		t.Fatalf("new core: %v", err)
	}
	if err := e.Reset(1); err != nil {
		t.Fatal(err)
	}
	return core{e, p}
}

func build(t *testing.T, src string) core {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return newCore(t, p)
}

func run(t *testing.T, c core) {
	t.Helper()
	if err := c.Run(1_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestArithmetic(t *testing.T) {
	c := build(t, `
main:	li   $t0, 7
		li   $t1, 5
		addu $t2, $t0, $t1     # 12
		subu $t3, $t0, $t1     # 2
		and  $t4, $t0, $t1     # 5
		or   $t5, $t0, $t1     # 7
		xor  $t6, $t0, $t1     # 2
		nor  $t7, $t0, $t1     # ^7
		mul  $s0, $t0, $t1     # 35
		sll  $s1, $t0, 2       # 28
		srl  $s2, $t0, 1       # 3
		halt
	`)
	run(t, c)
	want := map[isa.Reg]uint32{
		isa.T2: 12, isa.T3: 2, isa.T4: 5, isa.T5: 7, isa.T6: 2,
		isa.T7: ^uint32(7), isa.S0: 35, isa.S1: 28, isa.S2: 3,
	}
	for r, v := range want {
		if got := c.Reg(r); got != v {
			t.Errorf("%v = %d, want %d", r, got, v)
		}
	}
}

func TestSignedOps(t *testing.T) {
	c := build(t, `
main:	li   $t0, -8
		sra  $t1, $t0, 2       # -2
		srl  $t2, $t0, 28      # 15
		slt  $t3, $t0, $zero   # 1 (signed)
		sltu $t4, $t0, $zero   # 0 (unsigned: big value)
		slti $t5, $t0, -7      # 1
		sltiu $t6, $zero, 1    # 1
		halt
	`)
	run(t, c)
	if got := int32(c.Reg(isa.T1)); got != -2 {
		t.Errorf("sra = %d, want -2", got)
	}
	if got := c.Reg(isa.T2); got != 15 {
		t.Errorf("srl = %d, want 15", got)
	}
	for r, v := range map[isa.Reg]uint32{isa.T3: 1, isa.T4: 0, isa.T5: 1, isa.T6: 1} {
		if got := c.Reg(r); got != v {
			t.Errorf("%v = %d, want %d", r, got, v)
		}
	}
}

func TestVariableShifts(t *testing.T) {
	c := build(t, `
main:	li   $t0, 1
		li   $t1, 5
		sllv $t2, $t0, $t1     # 32
		li   $t3, -32
		srav $t4, $t3, $t1     # -1
		srlv $t5, $t3, $t1     # large
		halt
	`)
	run(t, c)
	if got := c.Reg(isa.T2); got != 32 {
		t.Errorf("sllv = %d, want 32", got)
	}
	if got := int32(c.Reg(isa.T4)); got != -1 {
		t.Errorf("srav = %d, want -1", got)
	}
	if got := c.Reg(isa.T5); got != uint32(0xffffffe0)>>5 {
		t.Errorf("srlv = %#x", got)
	}
}

func TestForwardingChain(t *testing.T) {
	// Each instruction consumes the immediately preceding result.
	c := build(t, `
main:	li   $t0, 1
		addu $t0, $t0, $t0    # 2
		addu $t0, $t0, $t0    # 4
		addu $t0, $t0, $t0    # 8
		addu $t1, $t0, $t0    # 16
		xor  $t2, $t1, $t0    # 24
		halt
	`)
	run(t, c)
	if got := c.Reg(isa.T2); got != 24 {
		t.Errorf("forwarding chain = %d, want 24", got)
	}
}

func TestLoadUseStall(t *testing.T) {
	c := build(t, `
		.data
v:		.word 41
		.text
main:	la   $t1, v
		lw   $t0, 0($t1)
		addiu $t0, $t0, 1     # immediately uses loaded value
		sw   $t0, 0($t1)
		halt
	`)
	run(t, c)
	w, _ := c.Mem().LoadWord(c.prog.Symbols["v"])
	if w != 42 {
		t.Errorf("v = %d, want 42", w)
	}
	if c.Stats().Stalls == 0 {
		t.Error("expected at least one load-use stall")
	}
}

func TestStoreAfterLoadForwarding(t *testing.T) {
	c := build(t, `
		.data
a:		.word 7
b:		.word 0
		.text
main:	la   $t2, a
		lw   $t0, 0($t2)
		sw   $t0, 4($t2)      # store value comes from the load
		halt
	`)
	run(t, c)
	w, _ := c.Mem().LoadWord(c.prog.Symbols["b"])
	if w != 7 {
		t.Errorf("b = %d, want 7", w)
	}
}

func TestLoopSum(t *testing.T) {
	c := build(t, `
main:	li   $t0, 0           # sum
		li   $t1, 1           # i
		li   $t2, 10          # limit
loop:	addu $t0, $t0, $t1
		addiu $t1, $t1, 1
		ble  $t1, $t2, loop
		halt
	`)
	run(t, c)
	if got := c.Reg(isa.T0); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
	st := c.Stats()
	if st.Flushes == 0 {
		t.Error("taken branches should flush")
	}
	if st.Cycles <= st.Insts {
		t.Errorf("cycles (%d) should exceed retired instructions (%d)", st.Cycles, st.Insts)
	}
}

func TestBranchVariants(t *testing.T) {
	c := build(t, `
main:	li   $t0, -3
		li   $t9, 0
		blez $t0, l1
		addiu $t9, $t9, 100   # skipped
l1:		addiu $t9, $t9, 1
		bgtz $t0, l2
		addiu $t9, $t9, 2
l2:		li   $t1, 5
		beq  $t1, $t1, l3
		addiu $t9, $t9, 100   # skipped
l3:		bne  $t1, $t1, l4
		addiu $t9, $t9, 4
l4:		halt
	`)
	run(t, c)
	if got := c.Reg(isa.T9); got != 7 {
		t.Errorf("t9 = %d, want 7", got)
	}
}

func TestCallReturn(t *testing.T) {
	c := build(t, `
main:	li   $a0, 20
		jal  double
		move $s0, $v0
		jal  double2
		halt
double:	addu $v0, $a0, $a0
		jr   $ra
double2:
		addu $v0, $s0, $s0
		jr   $ra
	`)
	run(t, c)
	if got := c.Reg(isa.V0); got != 80 {
		t.Errorf("v0 = %d, want 80", got)
	}
}

func TestJumpOverHaltShadow(t *testing.T) {
	// Instructions fetched after a halt shadow must not retire when a jump
	// redirects around it.
	c := build(t, `
main:	j    go
		halt                  # never reached
go:		li   $t0, 9
		halt
	`)
	run(t, c)
	if got := c.Reg(isa.T0); got != 9 {
		t.Errorf("t0 = %d, want 9", got)
	}
}

func TestHaltDrains(t *testing.T) {
	c := build(t, `
main:	li   $t0, 3
		addiu $t0, $t0, 1
		halt
	`)
	run(t, c)
	if !c.Halted() {
		t.Fatal("not halted")
	}
	if got := c.Reg(isa.T0); got != 4 {
		t.Errorf("t0 = %d, want 4 (older instructions must retire)", got)
	}
	cycles := c.Stats().Cycles
	if err := c.Run(1_000_000); err != nil || c.Stats().Cycles != cycles {
		t.Errorf("a halted core advanced: err=%v cycles %d -> %d", err, cycles, c.Stats().Cycles)
	}
}

func TestMaxCycles(t *testing.T) {
	c := build(t, "main: j main\nhalt\n")
	err := c.Run(100)
	if !errors.Is(err, cpu.ErrCycleLimit) {
		t.Errorf("err = %v, want cpu.ErrCycleLimit", err)
	}
	var cle *cpu.CycleLimitError
	if !errors.As(err, &cle) || cle.Limit != 100 {
		t.Errorf("err = %#v, want *cpu.CycleLimitError with Limit=100", err)
	}
}

func TestFetchOutOfRange(t *testing.T) {
	// Program without halt runs off the end of text.
	c := build(t, "main: nop\nnop\n")
	if err := c.Run(100); err == nil {
		t.Error("expected fetch error")
	}
}

func TestMisalignedAccess(t *testing.T) {
	c := build(t, `
main:	li  $t0, 2
		lw  $t1, 0($t0)
		halt
	`)
	if err := c.Run(100); err == nil {
		t.Error("expected misaligned load error")
	}
}

func TestMisalignedJr(t *testing.T) {
	c := build(t, `
main:	li  $t0, 6
		jr  $t0
		halt
	`)
	if err := c.Run(100); err == nil {
		t.Error("expected misaligned jr error")
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	c := build(t, `
main:	li    $t0, 5
		addu  $zero, $t0, $t0
		move  $t1, $zero
		halt
	`)
	run(t, c)
	if got := c.Reg(isa.T1); got != 0 {
		t.Errorf("$zero was written: t1 = %d", got)
	}
}

func TestSecureInstructionCount(t *testing.T) {
	c := build(t, `
		.data
v:		.word 3
		.text
main:	la    $t1, v
		slw   $t0, 0($t1)
		sxor  $t0, $t0, $t0
		ssw   $t0, 0($t1)
		lw    $t2, 0($t1)
		halt
	`)
	run(t, c)
	if got := c.Stats().SecureInst; got != 3 {
		t.Errorf("secure instructions retired = %d, want 3", got)
	}
}

func TestStatsAccumulation(t *testing.T) {
	c := build(t, `
main:	li   $t0, 2
		addu $t1, $t0, $t0
		halt
	`)
	var cycles uint64
	c.Attach(cpu.ProbeFunc(func(cpu.CycleInfo) { cycles++ }))
	run(t, c)
	st := c.Stats()
	if st.Insts != 3 {
		t.Errorf("retired = %d, want 3", st.Insts)
	}
	if cycles != st.Cycles {
		t.Errorf("probe saw %d cycles, stats report %d", cycles, st.Cycles)
	}
}

func TestExecPCReporting(t *testing.T) {
	c := build(t, `
main:	li   $t0, 1
		addu $t1, $t0, $t0
		halt
	`)
	seen := map[uint32]bool{}
	c.Attach(cpu.ProbeFunc(func(ci cpu.CycleInfo) {
		if ci.U != nil {
			seen[ci.U.PC] = true
		}
	}))
	run(t, c)
	for i := 0; i < 3; i++ {
		pc := c.prog.TextBase + uint32(4*i)
		if !seen[pc] {
			t.Errorf("pc %#x never reported in EX", pc)
		}
	}
}

func TestEmptyProgramRejected(t *testing.T) {
	p := &asm.Program{}
	if _, err := gang.Predecode(p); err == nil {
		t.Error("empty program accepted")
	}
}

func TestStatsFlushesAndStallsPlausible(t *testing.T) {
	c := build(t, `
		.data
v:		.word 9
		.text
main:	li   $t2, 4
loop:	la   $t1, v
		lw   $t0, 0($t1)
		addu $t0, $t0, $t0    # load-use
		addiu $t2, $t2, -1
		bgtz $t2, loop
		halt
	`)
	run(t, c)
	st := c.Stats()
	if st.Stalls < 4 {
		t.Errorf("stalls = %d, want >= 4 (one per iteration)", st.Stalls)
	}
	if st.Flushes < 3 {
		t.Errorf("flushes = %d, want >= 3 (at least one per taken branch)", st.Flushes)
	}
	// Lower bound: every retired instruction, stall bubble and squashed
	// instruction costs a cycle, plus the 4-cycle pipeline fill. Upper
	// bound: redirects cost at most two bubbles each.
	min := st.Insts + st.Stalls + st.Flushes + 4
	max := st.Insts + st.Stalls + 2*st.Flushes + 8
	if st.Cycles < min || st.Cycles > max {
		t.Errorf("cycle accounting: cycles=%d outside [%d,%d] (insts=%d stalls=%d flushes=%d)",
			st.Cycles, min, max, st.Insts, st.Stalls, st.Flushes)
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
