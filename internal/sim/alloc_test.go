package sim_test

// Steady-state allocation regression. After the first (warm-up) run, a
// session worker reuses its one-lane pipeline — lane memory, energy meter
// and trace buffers — so the only allocations left per encryption are the
// caller-owned pieces of the Result: the memory read-back (outer slice +
// words) and, for traced jobs, the trace snapshot (struct + totals + PCs).

import (
	"testing"

	"desmask/internal/compiler"
	"desmask/internal/desprog"
)

func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	m, err := desprog.New(compiler.PolicyNone)
	if err != nil {
		t.Fatal(err)
	}
	r := m.Runner()
	for _, tc := range []struct {
		name    string
		capture bool
		max     float64
	}{
		{"untraced", false, 2},
		{"traced", true, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			job, err := m.EncryptJob(0x133457799BBCDFF1, 0x0123456789ABCDEF, 0, tc.capture)
			if err != nil {
				t.Fatal(err)
			}
			if res := r.Run(job); res.Err != nil || !res.Done {
				t.Fatalf("warm-up: done=%v err=%v", res.Done, res.Err)
			}
			got := testing.AllocsPerRun(5, func() {
				if res := r.Run(job); res.Err != nil {
					t.Fatal(res.Err)
				}
			})
			if got > tc.max {
				t.Errorf("%.1f allocs per encryption, want <= %.0f", got, tc.max)
			}
		})
	}
}
