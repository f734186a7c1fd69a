package energy

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// newModel returns a one-lane meter: the scalar view of the energy model.
func newModel(cfg Config) *VecMeter {
	v := NewVecMeter(cfg, 1)
	v.Reset(1)
	return v
}

// runCycle runs one full set of datapath events through a one-lane meter,
// in stage order, and returns the cycle energy.
func runCycle(m *VecMeter, a, b, r, addr, data uint32, secure bool) CycleEnergy {
	m.BeginCycle()
	m.RegWrite()
	m.MemArray()
	m.Decode()
	m.RegRead(2)
	m.Fetch(0x12345678)
	m.EndShared()
	ev := LaneEvents{
		WB: true, WBSecure: secure, WBVal: data,
		Mem: true, MemSecure: secure, MemAddr: addr, MemData: data,
		EX: true, EXSecure: secure, EXScale: 1, A: a, B: b, R: r,
	}
	m.LaneCycle(0, &ev)
	var e CycleEnergy
	m.EndCycleInto(0, &e)
	return e
}

// aluCycle runs a cycle whose only datapath event is the ALU (or XOR unit)
// driven with the given operands, skipping buses and latches, and returns
// the ALU component.
func aluCycle(m *VecMeter, a, b, r uint32, isXor, secure bool) float64 {
	m.BeginCycle()
	m.EndShared()
	ev := LaneEvents{EX: true, EXSecure: secure, EXXor: isXor, EXScale: 1, A: a, B: b, R: r}
	m.LaneCycle(0, &ev)
	var e CycleEnergy
	m.EndCycleInto(0, &e)
	return e.By[CompALU]
}

func TestSecureCycleEnergyIsDataIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Pollute the rails with random insecure history, then measure a secure
	// cycle; its cost must be one constant regardless of both the history
	// and the secure operands.
	measure := func(a, b, r, addr, data uint32) float64 {
		m := newModel(DefaultConfig())
		runCycle(m, rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32(), false)
		return runCycle(m, a, b, r, addr, data, true).Total
	}
	ref := measure(1, 2, 3, 4, 5)
	f := func(a, b, r, addr, data uint32) bool {
		return math.Abs(measure(a, b, r, addr, data)-ref) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestInsecureCycleEnergyIsDataDependent(t *testing.T) {
	m1 := newModel(DefaultConfig())
	m2 := newModel(DefaultConfig())
	e1 := runCycle(m1, 0, 0, 0, 0, 0, false)
	e2 := runCycle(m2, 0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff, false)
	if math.Abs(e1.Total-e2.Total) < 1e-9 {
		t.Errorf("insecure cycles with different data consume identical energy (%.3f pJ)", e1.Total)
	}
	if e2.Total <= e1.Total {
		t.Errorf("all-ones-from-zero cycle (%.3f) should exceed all-zeros cycle (%.3f)", e2.Total, e1.Total)
	}
}

func TestPrechargeIsolatesSubsequentCycles(t *testing.T) {
	// An insecure transfer after a secure one must not depend on the secure
	// value — the bus was left precharged.
	mk := func(secret uint32) float64 {
		m := newModel(DefaultConfig())
		runCycle(m, secret, secret, secret, secret, secret, true)
		return runCycle(m, 0xa5a5a5a5, 0x5a5a5a5a, 3, 0x40, 9, false).Total
	}
	if a, b := mk(0), mk(0xffffffff); math.Abs(a-b) > 1e-9 {
		t.Errorf("secure value leaked into following insecure cycle: %.3f vs %.3f", a, b)
	}
}

func TestSecureCostsMoreThanAverageInsecure(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := newModel(DefaultConfig())
	var insecure float64
	const n = 2000
	for i := 0; i < n; i++ {
		insecure += runCycle(m, rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32(), false).Total
	}
	insecure /= n
	secure := runCycle(newModel(DefaultConfig()), 1, 2, 3, 4, 5, true).Total
	if secure <= insecure {
		t.Errorf("secure cycle (%.1f pJ) should exceed average insecure cycle (%.1f pJ)", secure, insecure)
	}
	if secure > 2.5*insecure {
		t.Errorf("secure cycle (%.1f pJ) implausibly above 2.5x insecure average (%.1f pJ)", secure, insecure)
	}
}

func TestAblationNoPrechargeLeaks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DualRailPrecharge = false
	mk := func(v uint32) float64 {
		m := newModel(cfg)
		runCycle(m, 0, 0, 0, 0, 0, false) // fixed history
		return runCycle(m, v, v, v, v, v, true).Total
	}
	if a, b := mk(0), mk(0xffffffff); math.Abs(a-b) < 1e-9 {
		t.Error("dual rail without precharge should still leak transition counts")
	}
}

func TestAblationNoGatingDoublesInsecure(t *testing.T) {
	gated := DefaultConfig()
	ungated := DefaultConfig()
	ungated.ClockGating = false
	eg := runCycle(newModel(gated), 0xffff0000, 0x00ffff00, 0xf0f0f0f0, 0x44, 0x99, false)
	eu := runCycle(newModel(ungated), 0xffff0000, 0x00ffff00, 0xf0f0f0f0, 0x44, 0x99, false)
	if eg.By[CompComplementary] != 0 {
		t.Errorf("gated insecure cycle charged complementary rail: %.3f pJ", eg.By[CompComplementary])
	}
	if eu.By[CompComplementary] <= 0 {
		t.Error("ungated insecure cycle must charge the complementary rail")
	}
	if eu.Total <= eg.Total {
		t.Errorf("ungated (%.1f) must exceed gated (%.1f)", eu.Total, eg.Total)
	}
}

func TestCouplingLeaksThroughDualRail(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InterWireCoupling = true
	mk := func(v uint32) float64 {
		m := newModel(cfg)
		return runCycle(m, v, v, v, v, v, true).Total
	}
	// 0x55555555 maximises adjacent-bit differences; 0 minimises them.
	if a, b := mk(0), mk(0x55555555); math.Abs(a-b) < 1e-9 {
		t.Error("inter-wire coupling should leak even under dual-rail masking")
	}
	// Without the ablation flag, the same pair is indistinguishable.
	mk2 := func(v uint32) float64 {
		m := newModel(DefaultConfig())
		return runCycle(m, v, v, v, v, v, true).Total
	}
	if a, b := mk2(0), mk2(0x55555555); math.Abs(a-b) > 1e-9 {
		t.Error("default config must fully mask secure cycles")
	}
}

func TestXorUnitPaperConstants(t *testing.T) {
	p := DefaultParams()
	// Secure XOR: 0.6 pJ constant, half on each rail.
	if got := aluCycle(newModel(DefaultConfig()), 0x1234, 0x5678, 0x1234^0x5678, true, true); math.Abs(2*got-p.XorUnitPJ) > 1e-9 {
		t.Errorf("secure XOR = %.3f pJ, want %.3f", 2*got, p.XorUnitPJ)
	}
	// Normal XOR averages ~0.3 pJ over random data.
	m := newModel(DefaultConfig())
	rng := rand.New(rand.NewSource(3))
	var sum float64
	const n = 5000
	for i := 0; i < n; i++ {
		a, b := rng.Uint32(), rng.Uint32()
		sum += aluCycle(m, a, b, a^b, true, false)
	}
	avg := sum / n
	if avg < 0.25 || avg > 0.35 {
		t.Errorf("normal XOR average = %.3f pJ, want ~0.3", avg)
	}
}

func TestBubbleCycleOnlyClock(t *testing.T) {
	m := newModel(DefaultConfig())
	m.BeginCycle()
	m.EndShared()
	var e CycleEnergy
	m.LaneCycle(0, &LaneEvents{})
	m.EndCycleInto(0, &e)
	if math.Abs(e.Total-DefaultParams().ClockPJ) > 1e-9 {
		t.Errorf("empty cycle = %.3f pJ, want clock-only %.3f", e.Total, DefaultParams().ClockPJ)
	}
}

func TestCycleEnergyAddAndString(t *testing.T) {
	var a CycleEnergy
	b := CycleEnergy{Total: 2}
	b.By[CompALU] = 1.5
	b.By[CompClock] = 0.5
	a.Add(b)
	a.Add(b)
	if a.Total != 4 || a.By[CompALU] != 3 {
		t.Errorf("Add: %+v", a)
	}
	s := b.String()
	for _, want := range []string{"2.00pJ", "alu=1.50", "clock=0.50"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestComponentNames(t *testing.T) {
	seen := map[string]bool{}
	for c := Component(0); c < NumComponents; c++ {
		n := c.String()
		if n == "" || strings.Contains(n, "?") {
			t.Errorf("component %d has bad name %q", c, n)
		}
		if seen[n] {
			t.Errorf("duplicate component name %q", n)
		}
		seen[n] = true
	}
	if Component(99).String() == "" {
		t.Error("out-of-range component must still render")
	}
}

func TestTotalsEqualComponentSums(t *testing.T) {
	f := func(a, b, r, addr, data uint32, secure bool) bool {
		m := newModel(DefaultConfig())
		e := runCycle(m, a, b, r, addr, data, secure)
		var sum float64
		for _, v := range e.By {
			sum += v
		}
		return math.Abs(sum-e.Total) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestConfigMatrix checks the masking invariant across every architectural
// configuration: with precharge on, secure cycles are data-independent no
// matter the gating/coupling settings — except that coupling deliberately
// re-introduces a (pattern-shaped) dependence.
func TestConfigMatrix(t *testing.T) {
	for _, precharge := range []bool{false, true} {
		for _, gating := range []bool{false, true} {
			for _, coupling := range []bool{false, true} {
				cfg := Config{Params: DefaultParams(),
					DualRailPrecharge: precharge, ClockGating: gating, InterWireCoupling: coupling}
				mk := func(v uint32) float64 {
					m := newModel(cfg)
					runCycle(m, 0, 0, 0, 0, 0, false)
					return runCycle(m, v, v, v, v, v, true).Total
				}
				same := math.Abs(mk(0x00000000)-mk(0xffffffff)) < 1e-9
				wantSame := precharge && !coupling
				if same != wantSame {
					t.Errorf("precharge=%v gating=%v coupling=%v: data-independent=%v, want %v",
						precharge, gating, coupling, same, wantSame)
				}
			}
		}
	}
}

// TestDefaultParamsSanity pins the paper-quoted constants and basic
// positivity.
func TestDefaultParamsSanity(t *testing.T) {
	p := DefaultParams()
	if p.XorUnitPJ != 0.6 {
		t.Errorf("XOR unit = %.2f pJ, paper says 0.6", p.XorUnitPJ)
	}
	vals := map[string]float64{
		"ClockPJ": p.ClockPJ, "IFetchArrayPJ": p.IFetchArrayPJ, "FetchLinePJ": p.FetchLinePJ,
		"DecodePJ": p.DecodePJ, "RegReadPJ": p.RegReadPJ, "RegWritePJ": p.RegWritePJ,
		"AluOpPJ": p.AluOpPJ, "ALUTogglePJ": p.ALUTogglePJ, "OpBusLinePJ": p.OpBusLinePJ,
		"ResultBusLinePJ": p.ResultBusLinePJ, "LatchBitPJ": p.LatchBitPJ,
		"MemAddrLinePJ": p.MemAddrLinePJ, "MemDataLinePJ": p.MemDataLinePJ,
		"MemArrayPJ": p.MemArrayPJ, "CouplingPJ": p.CouplingPJ,
	}
	for name, v := range vals {
		if v <= 0 {
			t.Errorf("%s = %g, must be positive", name, v)
		}
	}
	cfg := DefaultConfig()
	if !cfg.DualRailPrecharge || !cfg.ClockGating || cfg.InterWireCoupling {
		t.Error("DefaultConfig must be the paper's architecture")
	}
}
