package leakstat

// Scalar-vs-gang assessment throughput on the fixed-vs-random DES workload.
// Run with
//
//	go test -bench Assess -benchtime 3x ./internal/leakstat
//
// and compare ns/op between the Scalar and Gang variants.

import (
	"fmt"
	"testing"

	"desmask/internal/compiler"
	"desmask/internal/desprog"
)

func benchAssess(b *testing.B, m *desprog.Machine, traces, gangW int, maxCycles uint64) {
	b.Helper()
	win, err := DESMaskedWindow(m, testKey, testPlain, maxCycles)
	if err != nil {
		b.Fatal(err)
	}
	src := DESKeySource(m, testKey, testPlain, 7, maxCycles)
	cfg := Config{
		NumTraces: traces,
		Seed:      7,
		Shards:    2,
		Workers:   1,
		Gang:      gangW,
		Window:    win,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Assess(src, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(traces)*float64(b.N)/b.Elapsed().Seconds(), "traces/s")
}

func BenchmarkAssessDES(b *testing.B) {
	const (
		traces    = 32
		maxCycles = 12_000
	)
	for _, policy := range []compiler.Policy{compiler.PolicyNone, compiler.PolicySelective, compiler.PolicyAllSecure} {
		m, err := desprog.New(policy)
		if err != nil {
			b.Fatal(err)
		}
		for _, gangW := range []int{1, 16} {
			name := "scalar"
			if gangW > 1 {
				name = fmt.Sprintf("gang%d", gangW)
			}
			b.Run(policy.String()+"/"+name, func(b *testing.B) {
				benchAssess(b, m, traces, gangW, maxCycles)
			})
		}
	}
}
