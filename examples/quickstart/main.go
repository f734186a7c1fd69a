// Quickstart: encrypt one DES block on the simulated smart-card processor
// with the paper's selective energy masking, verify it against the
// reference implementation, and compare the energy bill with the
// unprotected baseline.
package main

import (
	"fmt"
	"log"

	"desmask/internal/compiler"
	"desmask/internal/des"
	"desmask/internal/desprog"
	"desmask/internal/sim"
)

func main() {
	const (
		key       = 0x133457799BBCDFF1
		plaintext = 0x0123456789ABCDEF
	)

	// Build the masked machine: the compiler forward-slices from the
	// `secure`-annotated key and emits dual-rail secure instructions only
	// where key-derived data flows.
	masked, err := desprog.New(compiler.PolicySelective)
	if err != nil {
		log.Fatal(err)
	}
	cipher, st, done, err := masked.Encrypt(key, plaintext, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plaintext  %016X\n", uint64(plaintext))
	fmt.Printf("ciphertext %016X\n", cipher)

	// The simulated, compiler-masked implementation must agree with the
	// reference oracle.
	if want := des.Encrypt(key, plaintext); !done || cipher != want {
		log.Fatalf("simulated cipher %016X (done=%v) != reference %016X", cipher, done, want)
	}
	fmt.Println("verified against reference DES: OK")

	// Compare with the unprotected baseline.
	baseline, err := desprog.New(compiler.PolicyNone)
	if err != nil {
		log.Fatal(err)
	}
	_, base, _, err := baseline.Encrypt(key, plaintext, 0)
	if err != nil {
		log.Fatal(err)
	}
	uj := func(s sim.Stats) float64 { return s.Energy.Total / 1e6 }

	fmt.Printf("\n%-22s %10s %12s %14s\n", "system", "energy", "pJ/cycle", "secure insts")
	fmt.Printf("%-22s %8.2f uJ %12.1f %8d/%d\n", "unprotected", uj(base),
		base.AvgPJPerCycle(), base.SecureInst, base.Insts)
	fmt.Printf("%-22s %8.2f uJ %12.1f %8d/%d\n", "selectively masked", uj(st),
		st.AvgPJPerCycle(), st.SecureInst, st.Insts)
	fmt.Printf("\nmasking cost: +%.1f%% energy for key-trace-flat execution\n",
		100*(uj(st)/uj(base)-1))

	rep := masked.Res.Report
	fmt.Printf("compiler secured %d of %d securable instructions (seeds: %v)\n",
		rep.SecuredOps, rep.TotalOps, rep.Seeds)
}
