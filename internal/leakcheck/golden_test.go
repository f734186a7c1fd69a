package leakcheck_test

// testdata/golden_reports.json was generated once by the instruction-level
// taint interpreter that predates the micro-op checker, and is never
// regenerated: it pins the checker's DES report (leak sites with their
// instructions and dynamic counts, wasted-masking count, instruction count)
// under every policy on both targets.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"desmask/internal/compiler"
	"desmask/internal/desprog"
	"desmask/internal/energy"
	"desmask/internal/isa"
	"desmask/internal/leakcheck"
)

type goldenReport struct {
	Target string   `json:"target"`
	Policy string   `json:"policy"`
	Insts  uint64   `json:"insts"`
	Wasted uint64   `json:"wasted"`
	Leaks  []string `json:"leaks"` // "%+v" of each leakcheck.Leak, by PC
}

func desReport(t *testing.T, target isa.Target, policy compiler.Policy) goldenReport {
	t.Helper()
	const (
		key       uint64 = 0x133457799BBCDFF1
		plaintext uint64 = 0x0123456789ABCDEF
	)
	m, err := desprog.NewFull(compiler.Options{Policy: policy, Target: target}, energy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prog := m.Res.Program
	keyAddr := prog.Symbols[compiler.GlobalLabel("key")]
	ptAddr := prog.Symbols[compiler.GlobalLabel("plaintext")]
	c, err := leakcheck.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := c.SetWord(keyAddr+uint32(4*i), uint32(key>>(63-i)&1), true); err != nil {
			t.Fatal(err)
		}
		if err := c.SetWord(ptAddr+uint32(4*i), uint32(plaintext>>(63-i)&1), false); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	g := goldenReport{Target: target.Name(), Policy: policy.String(), Insts: rep.Insts, Wasted: rep.SecureInsecureData}
	for _, l := range rep.Leaks {
		g.Leaks = append(g.Leaks, fmt.Sprintf("%+v", l))
	}
	return g
}

// TestCheckerReportsPinned checks the checker's DES report under every
// policy, on PISA and RV32, against the fixture.
func TestCheckerReportsPinned(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden_reports.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]goldenReport{}
	var list []goldenReport
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	for _, g := range list {
		want[g.Target+"/"+g.Policy] = g
	}
	for _, policy := range compiler.Policies() {
		t.Run(policy.String(), func(t *testing.T) {
			for _, target := range []isa.Target{isa.PISA, isa.RV32} {
				got := desReport(t, target, policy)
				if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want[got.Target+"/"+got.Policy]) {
					t.Errorf("%s: report diverges from the fixture:\n got  %+v\n want %+v",
						target.Name(), got, want[got.Target+"/"+got.Policy])
				}
			}
		})
	}
}
