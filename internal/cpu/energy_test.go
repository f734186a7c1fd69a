// Masking invariants of the secure ISA, checked through the energy meter of
// a one-lane pipeline run.
package cpu_test

import (
	"math"
	"strings"
	"testing"

	"desmask/internal/cpu"
)

// traceTotals runs a program with the energy meter on and returns the
// per-cycle energy totals, as a probe reads them after each commit.
func traceTotals(t *testing.T, src string, poke map[string]uint32) []float64 {
	t.Helper()
	c := build(t, src)
	p := c.prog
	for sym, v := range poke {
		addr, ok := p.Symbols[sym]
		if !ok {
			t.Fatalf("no symbol %q", sym)
		}
		if err := c.Mem().StoreWord(addr, v); err != nil {
			t.Fatal(err)
		}
	}
	meter := c.EnableMeter()
	var totals []float64
	c.Attach(cpu.ProbeFunc(func(cpu.CycleInfo) { totals = append(totals, meter.Last().Total) }))
	if err := c.Run(100000); err != nil {
		t.Fatal(err)
	}
	return totals
}

const secureLeakProgram = `
		.data
secret:	.word 0
out:	.word 0
		.text
main:	la    $t1, secret
		la    $t2, out
		%slw%   $t0, 0($t1)
		%sxor%  $t0, $t0, $t0
		%ssll%  $t3, $t0, 3
		%ssw%   $t3, 0($t2)
		halt
`

func substSecure(secure bool) string {
	src := secureLeakProgram
	repl := map[string]string{"%slw%": "slw", "%sxor%": "sxor", "%ssll%": "ssll", "%ssw%": "ssw"}
	if !secure {
		repl = map[string]string{"%slw%": "lw", "%sxor%": "xor", "%ssll%": "sll", "%ssw%": "sw"}
	}
	for k, v := range repl {
		src = strings.ReplaceAll(src, k, v)
	}
	return src
}

func TestSecureTraceDataIndependent(t *testing.T) {
	src := substSecure(true)
	a := traceTotals(t, src, map[string]uint32{"secret": 0x00000000})
	b := traceTotals(t, src, map[string]uint32{"secret": 0xdeadbeef})
	if len(a) != len(b) {
		t.Fatalf("cycle counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatalf("cycle %d differs: %.4f vs %.4f pJ (secure data leaked)", i, a[i], b[i])
		}
	}
}

func TestInsecureTraceLeaks(t *testing.T) {
	src := substSecure(false)
	a := traceTotals(t, src, map[string]uint32{"secret": 0x00000000})
	b := traceTotals(t, src, map[string]uint32{"secret": 0xdeadbeef})
	if len(a) != len(b) {
		t.Fatalf("cycle counts differ: %d vs %d", len(a), len(b))
	}
	var diff float64
	for i := range a {
		diff += math.Abs(a[i] - b[i])
	}
	if diff < 1e-9 {
		t.Error("insecure run should exhibit data-dependent energy")
	}
}

func TestSecureCostsMore(t *testing.T) {
	sec := traceTotals(t, substSecure(true), map[string]uint32{"secret": 0x1234})
	insec := traceTotals(t, substSecure(false), map[string]uint32{"secret": 0x1234})
	var sSum, iSum float64
	for _, v := range sec {
		sSum += v
	}
	for _, v := range insec {
		iSum += v
	}
	if sSum <= iSum {
		t.Errorf("secure total %.1f pJ should exceed insecure %.1f pJ", sSum, iSum)
	}
}

// TestEnergyProbeAccumulation checks the meter's internal bookkeeping: the
// running total equals the sum of per-cycle totals, the per-component
// breakdown sums to the total, and peak/cycle counters are consistent.
func TestEnergyProbeAccumulation(t *testing.T) {
	c := build(t, `
main:	li   $t0, 2
		addu $t1, $t0, $t0
		halt
	`)
	meter := c.EnableMeter()
	var sum, peak float64
	c.Attach(cpu.ProbeFunc(func(cpu.CycleInfo) {
		last := meter.Last().Total
		sum += last
		if last > peak {
			peak = last
		}
	}))
	if err := c.Run(1000); err != nil {
		t.Fatal(err)
	}
	if math.Abs(meter.TotalPJ()-sum) > 1e-6 {
		t.Errorf("meter total %.3f != per-cycle sum %.3f", meter.TotalPJ(), sum)
	}
	if meter.PeakPJ() != peak {
		t.Errorf("meter peak %.3f != observed peak %.3f", meter.PeakPJ(), peak)
	}
	if meter.Cycles() != c.Stats().Cycles {
		t.Errorf("meter cycles %d != cpu cycles %d", meter.Cycles(), c.Stats().Cycles)
	}
	var compSum float64
	for _, v := range meter.Total().By {
		compSum += v
	}
	if math.Abs(compSum-meter.TotalPJ()) > 1e-6 {
		t.Errorf("component sum %.3f != total %.3f", compSum, meter.TotalPJ())
	}
}

func TestDeterminism(t *testing.T) {
	src := `
main:	li   $t0, 0
		li   $t1, 1
loop:	addu $t0, $t0, $t1
		addiu $t1, $t1, 1
		slti $at, $t1, 20
		bne  $at, $zero, loop
		halt
	`
	a := traceTotals(t, src, nil)
	b := traceTotals(t, src, nil)
	if len(a) != len(b) {
		t.Fatal("non-deterministic cycle count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cycle %d energy differs between identical runs", i)
		}
	}
}

func TestSecureLoadUseStallStaysMasked(t *testing.T) {
	// A secure load feeding its consumer through the load-use stall path
	// must stay masked: the stall bubble and the forwarded value must not
	// leak the loaded secret.
	src := `
		.data
secret:	.word 0
out:	.word 0
		.text
main:	la    $t9, secret
		la    $t8, out
		slw   $t0, 0($t9)
		sxor  $t1, $t0, $t0   # immediate use: load-use stall on secure data
		ssw   $t1, 0($t8)
		halt
	`
	a := traceTotals(t, src, map[string]uint32{"secret": 0})
	b := traceTotals(t, src, map[string]uint32{"secret": 0xffffffff})
	if len(a) != len(b) {
		t.Fatalf("cycle counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatalf("cycle %d leaks through the stall path", i)
		}
	}
}

func TestSecureOpsAcrossBranchFlush(t *testing.T) {
	// Secure instructions sitting in the shadow of a taken branch are
	// squashed before EX; the masked program must stay cycle-aligned and
	// flat regardless of the secret.
	src := `
		.data
secret:	.word 0
out:	.word 0
		.text
main:	la    $t9, secret
		la    $t8, out
		li    $t7, 3
loop:	slw   $t0, 0($t9)
		sxor  $t0, $t0, $t0
		ssw   $t0, 0($t8)
		addiu $t7, $t7, -1
		bgtz  $t7, loop
		slw   $t1, 0($t9)     # fetched in the shadow of the taken branch
		ssw   $t1, 0($t8)
		halt
	`
	a := traceTotals(t, src, map[string]uint32{"secret": 0x12345678})
	b := traceTotals(t, src, map[string]uint32{"secret": 0x87654321})
	if len(a) != len(b) {
		t.Fatalf("cycle counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatalf("cycle %d leaks across branch flushes", i)
		}
	}
}

// TestStepLoopZeroAllocs pins the allocation guarantee of the pipeline
// step: once a core is constructed, a whole one-lane run — reset, the step
// loop with the energy meter committing every cycle and a probe attached,
// to halt — performs zero heap allocations.
func TestStepLoopZeroAllocs(t *testing.T) {
	c := build(t, `
		.text
main:	li    $t3, 200
loop:	addu  $t0, $t0, $t1
		xor   $t2, $t2, $t0
		addiu $t3, $t3, -1
		bgtz  $t3, loop
		halt
`)
	var cycles uint64
	probe := cpu.ProbeFunc(func(cpu.CycleInfo) { cycles++ })
	run := func() {
		if err := c.Reset(1); err != nil {
			t.Fatal(err)
		}
		c.EnableMeter()
		c.Attach(probe)
		if err := c.Run(100000); err != nil {
			t.Fatal(err)
		}
	}
	run()
	allocs := testing.AllocsPerRun(100, run)
	if allocs != 0 {
		t.Errorf("steady-state run allocates %.1f times, want 0", allocs)
	}
	if cycles < 1000 {
		t.Errorf("probe saw %d cycles, want a long loop", cycles)
	}
}
