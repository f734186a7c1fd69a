// protection-levels sweeps every protection policy and architectural
// ablation over one DES encryption, reporting total energy and whether the
// secret key still leaks into the differential energy profile — the paper's
// §4.3 comparison extended with the DESIGN.md §6 ablations.
package main

import (
	"fmt"
	"log"

	"desmask/internal/compiler"
	"desmask/internal/desprog"
	"desmask/internal/experiments"
)

func main() {
	const (
		key   = experiments.DefaultKey
		key2  = experiments.DefaultKeyBit1
		plain = experiments.DefaultPlain
	)

	fmt.Println("=== protection policies (paper §4.3) ===")
	fmt.Printf("%-18s %10s %12s %10s %8s\n", "policy", "total uJ", "pJ/cycle", "overhead", "leaks")
	var baseUJ float64
	for _, pol := range compiler.Policies() {
		m, err := desprog.New(pol)
		if err != nil {
			log.Fatal(err)
		}
		_, st, _, err := m.Encrypt(key, plain, 0)
		if err != nil {
			log.Fatal(err)
		}
		uj := st.Energy.Total / 1e6
		if pol == compiler.PolicyNone {
			baseUJ = uj
		}
		// Leak check: differential of two keys over the whole pre-output
		// region.
		d, _, err := experiments.DESDifferential(m, key, plain, key2, plain, experiments.MaskedRegion(&m.Machine))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %10.2f %12.1f %+9.1f%% %8v\n",
			pol, uj, st.AvgPJPerCycle(), 100*(uj/baseUJ-1), !d.Flat)
	}

	fmt.Println("\n=== architectural ablations (DESIGN.md §6) ===")
	rows, err := experiments.Ablations()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-34s %10s %8s %14s\n", "variant", "total uJ", "leaks", "max|diff| pJ")
	for _, a := range rows {
		fmt.Printf("%-34s %10.2f %8v %14.3f\n", a.Name, a.TotalUJ, a.Leaks, a.MaxAbs)
	}

	fmt.Println("\n=== generality: other ciphers under the same compiler ===")
	wl, err := experiments.Workloads()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-8s %10s %10s %14s %14s %12s\n", "workload", "cycles", "none uJ", "selective uJ", "all-secure uJ", "masked flat")
	for _, row := range wl {
		fmt.Printf("%-8s %10d %10.2f %14.2f %14.2f %12v\n", row.Name, row.Cycles,
			row.UJ[compiler.PolicyNone], row.UJ[compiler.PolicySelective],
			row.UJ[compiler.PolicyAllSecure], row.MaskedFlat)
	}

	fmt.Println("\nReading the tables: only configurations with leaks=false defeat DPA;")
	fmt.Println("among those, the paper's selective masking is by far the cheapest.")
}
