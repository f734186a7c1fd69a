// Command dpa-attack runs the complete first-round key-recovery attack
// against a simulated DES build: collect energy traces under a chosen
// protection (policy, masking, shuffling), attack all eight S-boxes with the
// selected distinguisher to recover the 48 round-1 sub-key bits, and complete
// them to the full 56-bit key by trial encryption against one known
// (plaintext, ciphertext) pair.
//
// The distinguisher comes from the same structured attack object leakd and
// cmd/tvla share: -stat dom is Kocher's single-bit difference of means, -stat
// cpa the Hamming-weight correlation attack, and -stat cpa -order 2 the
// second-order centered-square correlation attack that defeats first-order
// boolean masking. -stat tvla is rejected here — leakage assessment without
// key recovery is cmd/tvla's job.
//
// Usage:
//
//	dpa-attack [-stat dom|cpa] [-order 1|2] [-policy none] [-shuffle]
//	           [-traces N] [-seed N] [-workers N] [-max N]
//	           [-key HEX] [-plaintext HEX] [-expect recover|fail]
//	           [-o attack.json]
//
// The exit status reports tool failure, not attack failure: an attack that
// does not recover the key exits 0 unless -expect recover was given (and
// vice versa with -expect fail), which is how the CI smoke tests assert that
// unprotected DES falls and protected DES holds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"desmask/internal/cliconf"
	"desmask/internal/des"
	"desmask/internal/desprog"
	"desmask/internal/dpa"
	"desmask/internal/energy"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dpa-attack:", err)
	os.Exit(1)
}

// boxRecord is one S-box's attack outcome in the JSON record.
type boxRecord struct {
	Box      int     `json:"box"`
	Guess    uint32  `json:"guess"`
	Truth    uint32  `json:"truth"`
	Correct  bool    `json:"correct"`
	Peak     float64 `json:"peak"`
	RunnerUp float64 `json:"runner_up_peak"`
	// Margin is Peak/RunnerUp — how decisively the best guess won (1.0 means
	// a dead heat, i.e. no signal).
	Margin float64 `json:"margin"`
}

// attackRecord is one full-key attack outcome.
type attackRecord struct {
	Stat      string  `json:"stat"`
	Order     int     `json:"order"`
	Policy    string  `json:"policy"`
	Shuffle   bool    `json:"shuffle"`
	Traces    int     `json:"traces"`
	Seed      int64   `json:"seed"`
	MaxCycles uint64  `json:"max_cycles"`
	Seconds   float64 `json:"seconds"`

	Boxes           []boxRecord `json:"boxes,omitempty"`
	RecoveredChunks int         `json:"recovered_chunks"`
	Key             string      `json:"key,omitempty"`
	KeyOK           bool        `json:"key_ok"`
}

func main() {
	params := cliconf.DefaultAssess()
	// Attack-tool defaults: the victim is the unprotected build and 256 traces
	// recover the full key on it; assessments' selective default would make
	// every run a (correct but confusing) failure report.
	params.Policy = "none"
	params.Traces = 256
	params.AddFlags(flag.CommandLine)
	stat := flag.String("stat", "cpa", "distinguisher: dom | cpa (-order 2 selects the second-order centered-square cpa)")
	expect := flag.String("expect", "", "assert the outcome: recover (exit 1 unless the key is recovered) or fail (exit 1 if it is)")
	out := flag.String("o", "", "write the attack record as JSON to this file")
	flag.Parse()

	params.Attack.Stat = *stat
	r, err := params.Validate()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpa-attack:", err)
		os.Exit(2)
	}
	if r.Kernel != "des" {
		fmt.Fprintln(os.Stderr, "dpa-attack: key recovery is DES-only; -kernel must be des")
		os.Exit(2)
	}
	var st dpa.Stat
	switch {
	case r.StatV == "dom":
		st = dpa.StatDoM
	case r.StatV == "cpa" && r.OrderV == 2:
		st = dpa.StatCPA2
	case r.StatV == "cpa":
		st = dpa.StatCPA
	default:
		fmt.Fprintf(os.Stderr, "dpa-attack: -stat %s is a leakage assessment, not a key-recovery attack; use cmd/tvla\n", r.StatV)
		os.Exit(2)
	}
	switch *expect {
	case "", "recover", "fail":
	default:
		fmt.Fprintf(os.Stderr, "dpa-attack: -expect %q (want recover or fail)\n", *expect)
		os.Exit(2)
	}
	ciphertext := des.Encrypt(r.KeyV, r.PlaintextV)

	m, err := desprog.NewFull(r.CompilerOptions(), energy.DefaultConfig())
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	ts, err := dpa.Collect(m, r.KeyV, dpa.Config{
		NumTraces: r.Traces, Seed: r.Seed, MaxCycles: r.MaxCycles,
		Workers: r.Workers, Gang: r.Gang,
	})
	if err != nil {
		fatal(err)
	}
	collectSec := time.Since(start).Seconds()

	start = time.Now()
	res := dpa.FullKeyAttack(ts, st, r.PlaintextV, ciphertext)
	res.VerifyAgainst(r.KeyV)
	rec := attackRecord{
		Stat: st.String(), Order: r.OrderV, Policy: r.PolicyV.String(), Shuffle: r.ShuffleV,
		Traces: ts.Len(), Seed: r.Seed, MaxCycles: r.MaxCycles, Seconds: time.Since(start).Seconds(),
		RecoveredChunks: res.Recovered, KeyOK: res.OK,
	}
	if res.OK {
		rec.Key = fmt.Sprintf("%016X", res.Key)
	}

	pol := rec.Policy
	if rec.Shuffle {
		pol += "+shuffle"
	}
	fmt.Printf("attack %-4s order=%d policy=%-16s traces=%d max=%d (collected in %.1fs, attacked in %.1fs)\n",
		rec.Stat, rec.Order, pol, rec.Traces, rec.MaxCycles, collectSec, rec.Seconds)
	for _, b := range res.Boxes {
		truth := des.SubkeySixBits(r.KeyV, b.Box)
		margin := 0.0
		if b.RunnerUp.Peak > 0 {
			margin = b.Best.Peak / b.RunnerUp.Peak
		}
		mark := " "
		if b.Best.Guess == truth {
			mark = "*"
		}
		fmt.Printf("  S%d: guess=%02o truth=%02o %s peak=%-10.4g runner-up=%-10.4g margin=%.2f\n",
			b.Box+1, b.Best.Guess, truth, mark, b.Best.Peak, b.RunnerUp.Peak, margin)
		rec.Boxes = append(rec.Boxes, boxRecord{
			Box: b.Box, Guess: b.Best.Guess, Truth: truth,
			Correct: b.Best.Guess == truth,
			Peak:    b.Best.Peak, RunnerUp: b.RunnerUp.Peak, Margin: margin,
		})
	}
	fmt.Printf("recovered %d/8 sub-key chunks\n", res.Recovered)
	if res.OK {
		fmt.Printf("KEY RECOVERED: %016X (parity bits zero) reproduces the known ciphertext\n", res.Key)
	} else {
		fmt.Println("key not recovered: no completion of the guessed chunks reproduces the known ciphertext")
	}

	if *out != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *out)
	}

	if *expect == "recover" && !res.OK {
		fmt.Fprintln(os.Stderr, "dpa-attack: FAIL: expected key recovery")
		os.Exit(1)
	}
	if *expect == "fail" && res.OK {
		fmt.Fprintln(os.Stderr, "dpa-attack: FAIL: expected the countermeasure to hold, but the key was recovered")
		os.Exit(1)
	}
}
