// Command tvla runs the streaming fixed-vs-random Welch t-test leakage
// assessment (TVLA) against the masked builds: the statistical
// generalization of the exact two-trace differentials in cmd/experiments,
// scaled to thousands of traces in constant memory.
//
// It assesses one workload/policy (or every policy with -all) and prints —
// optionally writes as JSON — the max |t| verdict. For DES, -vary
// chooses what differs between the populations: "key" (default; the window
// is the whole masked region, [0, output permutation)) or "plaintext" (the
// window is round 1, past the insecure-by-design initial permutation).
//
// Usage:
//
//	tvla [-kernel des|aes128|tea|sha1] [-policy selective | -all]
//	     [-vary key|plaintext] [-traces N] [-seed N] [-workers N]
//	     [-shards N] [-threshold T] [-max N] [-key HEX] [-plaintext HEX]
//	     [-leakcheck] [-o report.json]
//
// The exit status reports tool failure, not the verdict: a build that leaks
// prints LEAK and exits 0, as does one that does not. A build that faults, or
// whose runs end before the assessment window does, fails the assessment with
// exit status 1; invalid flags exit 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"desmask/internal/cliconf"
	"desmask/internal/compiler"
	"desmask/internal/desprog"
	"desmask/internal/energy"
	"desmask/internal/kernels"
	"desmask/internal/leakcheck"
	"desmask/internal/leakstat"
	"desmask/internal/trace"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tvla:", err)
	os.Exit(1)
}

func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", path)
}

// assessment is one policy's report record.
type assessment struct {
	Workload string `json:"workload"`
	Policy   string `json:"policy"`
	ISA      string `json:"isa"`
	Vary     string `json:"vary"`
	Shuffle  bool   `json:"shuffle,omitempty"`
	*leakstat.Report
	Seconds      float64 `json:"seconds"`
	TracesPerSec float64 `json:"traces_per_sec"`
	// Taint leak sites outside declassification, when -leakcheck ran.
	TaintLeakSites *int `json:"taint_leak_sites,omitempty"`
}

// desSetup builds the machine, source, and window of one DES assessment.
func desSetup(opt compiler.Options, vary string, key, plain uint64, seed int64, maxCycles uint64) (*desprog.Machine, leakstat.Source, trace.Window, error) {
	m, err := desprog.NewFull(opt, energy.DefaultConfig())
	if err != nil {
		return nil, leakstat.Source{}, trace.Window{}, err
	}
	var src leakstat.Source
	var win trace.Window
	switch vary {
	case "key":
		src = leakstat.DESKeySource(m, key, plain, seed, maxCycles)
		win, err = leakstat.DESMaskedWindow(m, key, plain, maxCycles)
	case "plaintext":
		src = leakstat.DESPlaintextSource(m, key, plain, seed, maxCycles)
		win, err = leakstat.DESRound1Window(m, key, plain, maxCycles)
	default:
		err = fmt.Errorf("unknown -vary %q (want key or plaintext)", vary)
	}
	return m, src, win, err
}

func assess(kernel string, opt compiler.Options, vary string, key, plain uint64,
	cfg leakstat.Config, maxCycles uint64, runLeakcheck bool) (*assessment, error) {
	var (
		src leakstat.Source
		win trace.Window
		err error

		taintN *int
	)
	switch kernel {
	case "des":
		var m *desprog.Machine
		m, src, win, err = desSetup(opt, vary, key, plain, cfg.Seed, maxCycles)
		if err != nil {
			return nil, err
		}
		if runLeakcheck {
			keyAddr, ok := m.Res.Program.Symbols[compiler.GlobalLabel("key")]
			if !ok {
				return nil, fmt.Errorf("no key global")
			}
			rep, err := leakcheck.CheckProgram(m.Res.Program, []leakcheck.TaintRange{{Addr: keyAddr, Words: 64}})
			if err != nil {
				return nil, err
			}
			lo := m.Res.Program.Symbols["f_output_permutation"]
			hi := m.Res.Program.Symbols["f_main"]
			n := len(rep.LeaksOutsideRegion(lo, hi))
			taintN = &n
		}
	default:
		k, ok := kernels.ByName(kernel)
		if !ok {
			return nil, fmt.Errorf("unknown -kernel %q (want des, aes128, tea or sha1)", kernel)
		}
		if vary != "key" {
			return nil, fmt.Errorf("-vary %s is DES-only; kernel populations always vary the secret", vary)
		}
		m, err := kernels.Build(k, opt, energy.DefaultConfig())
		if err != nil {
			return nil, err
		}
		secret, public, mask := kernels.TVLAInputs(k)
		src = leakstat.KernelSecretSource(m, secret, public, mask, cfg.Seed, maxCycles)
		win, err = leakstat.KernelMaskedWindow(m, secret, public)
		if err != nil {
			return nil, err
		}
		if runLeakcheck {
			addr, ok := m.Res.Program.Symbols[compiler.GlobalLabel(k.SecretGlobal)]
			if !ok {
				return nil, fmt.Errorf("no %s global", k.SecretGlobal)
			}
			rep, err := leakcheck.CheckProgram(m.Res.Program, []leakcheck.TaintRange{{Addr: addr, Words: len(secret)}})
			if err != nil {
				return nil, err
			}
			lo, hi := m.Res.Program.Symbols["f_emit_output"], m.Res.Program.Symbols["f_main"]
			n := len(rep.LeaksOutsideRegion(lo, hi))
			taintN = &n
		}
		vary = "secret"
	}
	cfg.Window = win
	start := time.Now()
	rep, err := leakstat.Assess(src, cfg)
	if err != nil {
		return nil, err
	}
	sec := time.Since(start).Seconds()
	return &assessment{
		Workload: kernel, Policy: opt.Policy.String(), ISA: opt.Target.Name(), Vary: vary,
		Shuffle: opt.Shuffle,
		Report:  rep, Seconds: sec, TracesPerSec: float64(rep.NumTraces) / sec,
		TaintLeakSites: taintN,
	}, nil
}

func printAssessment(a *assessment) {
	verdict := "no leak"
	if a.Leak {
		verdict = "LEAK"
	}
	pol := a.Policy
	if a.Shuffle {
		pol += "+shuffle"
	}
	fmt.Printf("%-8s %-16s isa=%-4s vary=%-9s order=%d traces=%d window=[%d,%d) max|t|=%.4g @%d  %s (threshold %.1f)\n",
		a.Workload, pol, a.ISA, a.Vary, a.Order, a.NumTraces, a.WindowStart, a.WindowEnd,
		a.MaxAbsT, a.MaxTCycle, verdict, a.Threshold)
	fmt.Printf("         fixed/random=%d/%d shards=%d state=%.1f KiB  %.1f traces/s\n",
		a.FixedN, a.RandomN, a.Shards, float64(a.StateBytes)/1024, a.TracesPerSec)
	if a.TaintLeakSites != nil {
		fmt.Printf("         taint check: %d leak sites outside declassification\n", *a.TaintLeakSites)
	}
}

func main() {
	params := cliconf.DefaultAssess()
	params.AddFlags(flag.CommandLine)
	all := flag.Bool("all", false, "assess every policy")
	runLeakcheck := flag.Bool("leakcheck", false, "also run the dynamic taint check on each build")
	out := flag.String("o", "", "write the report as JSON to this file")
	flag.Parse()

	r, err := params.Validate()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tvla:", err)
		os.Exit(2)
	}

	pols := []compiler.Policy{r.PolicyV}
	if *all {
		pols = compiler.Policies()
	}

	cfg := r.Config()
	opt := r.CompilerOptions()
	var reports []*assessment
	for _, pol := range pols {
		opt.Policy = pol
		a, err := assess(r.Kernel, opt, r.Vary, r.KeyV, r.PlaintextV, cfg, r.MaxCycles, *runLeakcheck)
		if err != nil {
			fatal(err)
		}
		printAssessment(a)
		reports = append(reports, a)
	}
	if *out != "" {
		if *all {
			writeJSON(*out, reports)
		} else {
			writeJSON(*out, reports[0])
		}
	}
}
