// Command desenc encrypts or decrypts one 64-bit DES block, either with the
// reference implementation or on the simulated smart-card processor under a
// chosen protection policy.
//
// Usage:
//
//	desenc -key 133457799BBCDFF1 -block 0123456789ABCDEF [-decrypt]
//	       [-sim] [-policy selective] [-stats] [-trials N]
//
// -sim runs the (encrypt-only) simulated masked implementation and verifies
// it against the reference; -stats adds cycle and energy accounting.
// -trials N batch-verifies N additional random blocks against the reference
// implementation across the simulation session's worker pool.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"desmask/internal/cliconf"
	"desmask/internal/des"
	"desmask/internal/desprog"
	"desmask/internal/sim"
)

func main() {
	keyStr := flag.String("key", "133457799BBCDFF1", "64-bit key, hex")
	blockStr := flag.String("block", "0123456789ABCDEF", "64-bit block, hex")
	decrypt := flag.Bool("decrypt", false, "decrypt instead of encrypt")
	simulate := flag.Bool("sim", false, "run on the simulated smart-card processor")
	policyStr := flag.String("policy", "selective", "protection policy: "+cliconf.PolicyUsage())
	stats := flag.Bool("stats", false, "print cycle and energy statistics (with -sim)")
	trials := flag.Int("trials", 0, "batch-verify N random blocks against the reference (with -sim)")
	flag.Parse()

	key, err := cliconf.ParseHex64("key", *keyStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "desenc:", err)
		os.Exit(2)
	}
	block, err := cliconf.ParseHex64("block", *blockStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "desenc:", err)
		os.Exit(2)
	}

	if !*simulate {
		if *decrypt {
			fmt.Printf("%016X\n", des.Decrypt(key, block))
		} else {
			fmt.Printf("%016X\n", des.Encrypt(key, block))
		}
		return
	}

	pol, err := cliconf.ParsePolicy(*policyStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "desenc:", err)
		os.Exit(2)
	}
	newMachine, ref := desprog.New, des.Encrypt
	if *decrypt {
		newMachine, ref = desprog.NewDecrypt, des.Decrypt
	}
	m, err := newMachine(pol)
	if err != nil {
		fmt.Fprintln(os.Stderr, "desenc:", err)
		os.Exit(1)
	}
	out, st, done, err := m.Encrypt(key, block, 0)
	if err != nil || !done {
		fmt.Fprintln(os.Stderr, "desenc: simulated run failed:", err)
		os.Exit(1)
	}
	if want := ref(key, block); out != want {
		fmt.Fprintf(os.Stderr, "desenc: simulator/reference mismatch: %016X vs %016X\n", out, want)
		os.Exit(1)
	}
	fmt.Printf("%016X\n", out)
	if *stats {
		fmt.Printf("policy=%s cycles=%d insts=%d secure-insts=%d stalls=%d flushes=%d\n",
			pol, st.Cycles, st.Insts, st.SecureInst, st.Stalls, st.Flushes)
		fmt.Printf("energy=%.2f uJ avg=%.1f pJ/cycle\n", st.Energy.Total/1e6, st.AvgPJPerCycle())
	}
	if *trials > 0 && !*decrypt {
		if err := runTrials(m, *trials); err != nil {
			fmt.Fprintln(os.Stderr, "desenc:", err)
			os.Exit(1)
		}
	}
}

// runTrials encrypts n random (key, block) pairs as one batch across the
// session's worker pool and checks every ciphertext against the reference
// implementation. The pairs derive from per-trial seeds, so a rerun checks
// the same vectors regardless of worker count.
func runTrials(m *desprog.Machine, n int) error {
	inputs := make([]desprog.Input, n)
	for i := range inputs {
		rng := rand.New(rand.NewSource(sim.DeriveSeed(0xDE5, i)))
		inputs[i] = desprog.Input{Key: rng.Uint64(), Plaintext: rng.Uint64()}
	}
	ciphers, err := m.CipherBatch(inputs, sim.Options{})
	if err != nil {
		return err
	}
	for i, in := range inputs {
		if want := des.Encrypt(in.Key, in.Plaintext); ciphers[i] != want {
			return fmt.Errorf("trial %d: simulator/reference mismatch: %016X vs %016X", i, ciphers[i], want)
		}
	}
	fmt.Printf("verified %d random blocks against the reference implementation\n", n)
	return nil
}
