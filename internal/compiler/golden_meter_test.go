package compiler

// testdata/golden_fuzz_meter.json was generated once from the two-engine
// core (the scalar pipeline step metered by the per-stage energy model) and
// is never regenerated. It pins, for the seeded fuzz programs of
// TestFuzzSelectiveMasks under every policy, the cycle count and the exact
// bits of every per-component energy accumulator and of the peak cycle.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"desmask/internal/energy"
	"desmask/internal/sim"
)

type fuzzMeterCell struct {
	Program  int      `json:"program"`
	Policy   string   `json:"policy"`
	Cycles   uint64   `json:"cycles"`
	ByBits   []string `json:"by_bits"`
	PeakBits string   `json:"peak_bits"`
}

func fuzzMeterCells(t *testing.T) []fuzzMeterCell {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	var cells []fuzzMeterCell
	for prog := 0; prog < 15; prog++ {
		src := randomProgram(rng, 10)
		for _, policy := range Policies() {
			res, err := Compile(src, policy)
			if err != nil {
				t.Fatalf("program %d/%v: %v", prog, policy, err)
			}
			job := sim.Job{MaxCycles: 2_000_000, RequireHalt: true}
			keyAddr := res.Program.Symbols[GlobalLabel("key")]
			for i := 0; i < 4; i++ {
				job.Writes = append(job.Writes, sim.Write{Addr: keyAddr + uint32(4*i), Val: 0x9e3779b9 * uint32(prog+i+1)})
			}
			r := sim.NewRunner(res.Program, energy.DefaultConfig()).Run(job)
			if r.Err != nil {
				t.Fatalf("program %d/%v: %v", prog, policy, r.Err)
			}
			c := fuzzMeterCell{Program: prog, Policy: policy.String(), Cycles: r.Stats.Cycles,
				PeakBits: fmt.Sprintf("%016x", math.Float64bits(r.Stats.PeakPJ))}
			for _, v := range r.Stats.Energy.By {
				c.ByBits = append(c.ByBits, fmt.Sprintf("%016x", math.Float64bits(v)))
			}
			cells = append(cells, c)
		}
	}
	return cells
}

// TestGoldenFuzzMeter checks the fuzz programs' energy breakdowns against
// the fixture, bit for bit.
func TestGoldenFuzzMeter(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden_fuzz_meter.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []fuzzMeterCell
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got := fuzzMeterCells(t)
	if len(got) != len(want) {
		t.Fatalf("fixture has %d cells, produced %d", len(want), len(got))
	}
	for i, w := range want {
		if fmt.Sprintf("%+v", got[i]) != fmt.Sprintf("%+v", w) {
			t.Errorf("program %d/%s:\n got  %+v\n want %+v", w.Program, w.Policy, got[i], w)
		}
	}
}
