package trace_test

// The pipeline (internal/gang) records traces and windowed samples itself;
// these tests pin that recording against the Trace contract: one sample per
// committed cycle holding the cycle's metered energy, and the EX-stage PC or
// NoPC for a bubble.

import (
	"testing"

	"desmask/internal/asm"
	"desmask/internal/cpu"
	"desmask/internal/energy"
	"desmask/internal/gang"
	"desmask/internal/trace"
)

const recProgram = `
		.data
v:		.word 9
		.text
main:	la   $t1, v
		lw   $t0, 0($t1)
		addu $t0, $t0, $t0    # load-use stall: a bubble in EX
		sw   $t0, 0($t1)
		halt
`

// meteredRun runs recProgram on one lane with the meter on and a probe
// copying each committed cycle's energy and EX PC.
func meteredRun(t *testing.T, observe func(e *gang.Engine)) ([]float64, []uint32, *gang.Engine) {
	t.Helper()
	p, err := asm.Assemble(recProgram)
	if err != nil {
		t.Fatal(err)
	}
	e, err := gang.New(p, energy.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Reset(1); err != nil {
		t.Fatal(err)
	}
	meter := e.EnableMeter()
	observe(e)
	var totals []float64
	var pcs []uint32
	e.Attach(cpuProbe(func(pc uint32) {
		totals = append(totals, meter.LastPJ())
		pcs = append(pcs, pc)
	}))
	if err := e.Run(1000); err != nil {
		t.Fatal(err)
	}
	return totals, pcs, e
}

func TestRecorder(t *testing.T) {
	totals, pcs, e := meteredRun(t, func(e *gang.Engine) { e.EnableTrace(0) })
	tr := e.LaneTrace(0)
	if tr.Len() != len(totals) || uint64(tr.Len()) != e.Stats().Cycles {
		t.Fatalf("trace has %d cycles, probe saw %d, stats %d", tr.Len(), len(totals), e.Stats().Cycles)
	}
	bubbles := 0
	for i := range totals {
		if tr.Totals[i] != totals[i] || tr.PCs[i] != pcs[i] {
			t.Fatalf("cycle %d: trace (%v, %#x), meter (%v, %#x)", i, tr.Totals[i], tr.PCs[i], totals[i], pcs[i])
		}
		if tr.Totals[i] <= 0 {
			t.Errorf("cycle %d consumed no energy", i)
		}
		if tr.PCs[i] == trace.NoPC {
			bubbles++
		}
	}
	if bubbles == 0 {
		t.Error("no bubble cycle recorded as NoPC")
	}
}

func TestWindowRecorder(t *testing.T) {
	buf := make([]float64, 3)
	totals, _, _ := meteredRun(t, func(e *gang.Engine) {
		e.SetSampleWindow(2, 5)
		e.SetLaneSampleBuf(0, buf)
	})
	w := trace.Window{Start: 2, End: 5}
	tr := &trace.Trace{Totals: totals}
	want := tr.Slice(w)
	for i := range want {
		if buf[i] != want[i] {
			t.Errorf("window samples = %v, want %v", buf, want)
			break
		}
	}
}

// cpuProbe adapts a per-cycle callback on the EX PC to cpu.Probe.
type cpuProbe func(pc uint32)

func (f cpuProbe) OnCycle(ci cpu.CycleInfo) {
	pc := trace.NoPC
	if ci.U != nil {
		pc = ci.U.PC
	}
	f(pc)
}
