package cpu_test

// Golden meter fixture. testdata/golden_meter.json was generated once from
// the two-engine core (the scalar pipeline step metered by the per-stage
// energy model) and is never regenerated: it pins what that core reported
// beyond the energy totals and trace digests of internal/sim's manifest —
// the exact bits of every per-component energy accumulator and of the peak
// cycle for each (workload, policy) cell, and the error text and partial
// statistics of the faulting and budget-limited programs — so the one-lane
// lockstep core that replaced it must agree to the bit.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"desmask/internal/asm"
	"desmask/internal/compiler"
	"desmask/internal/desprog"
	"desmask/internal/energy"
	"desmask/internal/kernels"
	"desmask/internal/sim"
)

type meterCell struct {
	Workload string   `json:"workload"`
	Policy   string   `json:"policy"`
	ByBits   []string `json:"by_bits"` // per energy.Component, index order
	PeakBits string   `json:"peak_bits"`
}

type faultCell struct {
	Name       string `json:"name"`
	Err        string `json:"err"`
	Cycles     uint64 `json:"cycles"`
	Insts      uint64 `json:"insts"`
	SecureInst uint64 `json:"secure_inst"`
	Stalls     uint64 `json:"stalls"`
	Flushes    uint64 `json:"flushes"`
	EnergyBits string `json:"energy_bits"`
	PeakBits   string `json:"peak_bits"`
}

type meterFixture struct {
	Cells  []meterCell `json:"cells"`
	Faults []faultCell `json:"faults"`
}

func bitsOf(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

func byBits(e energy.CycleEnergy) []string {
	out := make([]string, len(e.By))
	for i, v := range e.By {
		out[i] = bitsOf(v)
	}
	return out
}

// goldenKernelInputs mirrors the inputs of internal/sim's golden manifest.
func goldenKernelInputs(name string) (secret, public []uint32) {
	switch name {
	case "tea":
		return []uint32{0x01234567, 0x89abcdef, 0xfedcba98, 0x76543210},
			[]uint32{0xdeadbeef, 0xcafebabe}
	case "aes128":
		secret = make([]uint32, 16)
		for i := range secret {
			secret[i] = uint32(i)
		}
		return secret, []uint32{0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
			0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff}
	}
	iv := []uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	block := make([]uint32, 16)
	block[0] = 0x61626380
	block[15] = 24
	return iv, block
}

func meterCellFor(t *testing.T, workload string, policy compiler.Policy) meterCell {
	t.Helper()
	var st sim.Stats
	if workload == "des" {
		m, err := desprog.New(policy)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, st, err = m.TraceRun(0x133457799BBCDFF1, 0x0123456789ABCDEF); err != nil {
			t.Fatal(err)
		}
	} else {
		k := map[string]func() kernels.Kernel{"tea": kernels.TEA, "aes128": kernels.AES128, "sha1": kernels.SHA1}[workload]
		m, err := kernels.BuildSimple(k(), policy)
		if err != nil {
			t.Fatal(err)
		}
		secret, public := goldenKernelInputs(workload)
		job, err := m.Job(secret, public, true)
		if err != nil {
			t.Fatal(err)
		}
		res := m.Runner().Run(job)
		if res.Err != nil || !res.Done {
			t.Fatalf("%s/%s: done=%v err=%v", workload, policy, res.Done, res.Err)
		}
		st = res.Stats
	}
	return meterCell{Workload: workload, Policy: policy.String(), ByBits: byBits(st.Energy), PeakBits: bitsOf(st.PeakPJ)}
}

// goldenFaults are the error-path programs of cpu_test.go, plus a memory
// fault in the same cycle as a load-use stall (the stall must not be
// counted: the core stops mid-cycle, before ID).
var goldenFaults = []struct{ name, src string }{
	{"cycle-limit", "main: j main\nhalt\n"},
	{"fetch-fault", "main: nop\nnop\n"},
	{"misaligned-load", "main:\tli $t0, 2\n\tlw $t1, 0($t0)\n\thalt\n"},
	{"misaligned-jr", "main:\tli $t0, 6\n\tjr $t0\n\thalt\n"},
	{"fault-under-stall", `
		.data
v:		.word 5
		.text
main:	la   $t4, v
		li   $t0, 2
		lw   $t1, 0($t0)
		lw   $t3, 0($t4)
		addu $t5, $t3, $t3
		halt
	`},
}

func faultCellFor(t *testing.T, name, src string) faultCell {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.NewRunner(p, energy.DefaultConfig()).Run(sim.Job{MaxCycles: 100, RequireHalt: true})
	if res.Err == nil {
		t.Fatalf("%s: no error", name)
	}
	st := res.Stats
	return faultCell{Name: name, Err: res.Err.Error(), Cycles: st.Cycles, Insts: st.Insts,
		SecureInst: st.SecureInst, Stalls: st.Stalls, Flushes: st.Flushes,
		EnergyBits: bitsOf(st.Energy.Total), PeakBits: bitsOf(st.PeakPJ)}
}

// TestGoldenMeter checks every per-component energy accumulator, the peak
// cycle, and the fault-path errors and partial statistics against the
// fixture, bit for bit.
func TestGoldenMeter(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden_meter.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want meterFixture
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	var got meterFixture
	for _, f := range goldenFaults {
		got.Faults = append(got.Faults, faultCellFor(t, f.name, f.src))
	}
	if !testing.Short() {
		for _, workload := range []string{"des", "tea", "aes128", "sha1"} {
			for _, policy := range compiler.Policies() {
				got.Cells = append(got.Cells, meterCellFor(t, workload, policy))
			}
		}
	} else {
		want.Cells = nil
	}
	if len(got.Faults) != len(want.Faults) || len(got.Cells) != len(want.Cells) {
		t.Fatalf("fixture has %d faults/%d cells, produced %d/%d",
			len(want.Faults), len(want.Cells), len(got.Faults), len(got.Cells))
	}
	for i, w := range want.Faults {
		if got.Faults[i] != w {
			t.Errorf("fault %s:\n got  %+v\n want %+v", w.Name, got.Faults[i], w)
		}
	}
	for i, w := range want.Cells {
		g := got.Cells[i]
		if g.Workload != w.Workload || g.Policy != w.Policy || g.PeakBits != w.PeakBits || fmt.Sprint(g.ByBits) != fmt.Sprint(w.ByBits) {
			t.Errorf("%s/%s:\n got  %+v\n want %+v", w.Workload, w.Policy, g, w)
		}
	}
}
