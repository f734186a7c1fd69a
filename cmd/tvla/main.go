// Command tvla runs the streaming fixed-vs-random Welch t-test leakage
// assessment (TVLA) against the masked builds: the statistical
// generalization of the exact two-trace differentials in cmd/experiments,
// scaled to thousands of traces in constant memory.
//
// It assesses one workload/policy (or every policy with -all) and prints —
// optionally writes as JSON — the max |t| verdict. Traces run in lockstep
// gangs of 16 unless -gang says otherwise (-gang 1 runs one lane at a time);
// the verdict is the same for every width. For DES, -vary
// chooses what differs between the populations: "key" (default; the window
// is the whole masked region, [0, output permutation)) or "plaintext" (the
// window is round 1, past the insecure-by-design initial permutation).
//
// Usage:
//
//	tvla [-kernel des|aes128|tea|sha1] [-policy selective | -all]
//	     [-vary key|plaintext] [-traces N] [-seed N] [-workers N]
//	     [-shards N] [-gang N] [-threshold T] [-max N] [-key HEX] [-plaintext HEX]
//	     [-leakcheck] [-o report.json]
//
// The exit status reports tool failure, not the verdict: a build that leaks
// prints LEAK and exits 0, as does one that does not. A build that faults, or
// whose runs end before the assessment window does, fails the assessment with
// exit status 1; invalid flags exit 2. A -max budget that ends before the
// assessed region does (the masked region, or round 1 with -vary plaintext)
// clamps the window to the budget and prints a warning to standard error;
// the exit status does not change.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"desmask/internal/cliconf"
	"desmask/internal/compiler"
	"desmask/internal/leakstat"
	"desmask/internal/verdict"
)

// writeJSON writes v as indented JSON to path and names the file on out.
func writeJSON(out io.Writer, path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(out, "wrote", path)
	return nil
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
	// WindowTruncated reports that -max ended the window before the region
	// it stands for did.
	WindowTruncated bool `json:"window_truncated,omitempty"`
}

// assess builds one workload through the verdict front door and runs the
// streaming t-test on it, with the taint check first when runLeakcheck is
// set.
func assess(r *cliconf.ResolvedAssess, runLeakcheck bool) (*assessment, error) {
	wl, err := verdict.Build(context.Background(), verdict.Request{Params: r}, nil)
	if err != nil {
		return nil, err
	}
	var taintN *int
	if runLeakcheck {
		n, err := wl.TaintLeakSites()
		if err != nil {
			return nil, err
		}
		taintN = &n
	}
	start := time.Now()
	rep, err := leakstat.Assess(wl.Source, wl.Config)
	if err != nil {
		return nil, err
	}
	sec := time.Since(start).Seconds()
	return &assessment{
		Workload: wl.Name, Policy: r.PolicyV.String(), ISA: r.TargetV.Name(), Vary: wl.Vary,
		Shuffle: r.ShuffleV,
		Report:  rep, Seconds: sec, TracesPerSec: float64(rep.NumTraces) / sec,
		TaintLeakSites:  taintN,
		WindowTruncated: wl.Region.Truncated,
	}, nil
}

// printAssessment writes the report of one assessment to out, and to errOut
// a warning when the cycle budget truncated its window.
func printAssessment(out, errOut io.Writer, a *assessment) {
	if a.WindowTruncated {
		fmt.Fprintf(errOut, "tvla: warning: %s %s: -max cut the assessed region short; the verdict covers window [%d,%d) only\n",
			a.Workload, a.Policy, a.WindowStart, a.WindowEnd)
	}
	verdict := "no leak"
	if a.Leak {
		verdict = "LEAK"
	}
	pol := a.Policy
	if a.Shuffle {
		pol += "+shuffle"
	}
	fmt.Fprintf(out, "%-8s %-16s isa=%-4s vary=%-9s order=%d traces=%d window=[%d,%d) max|t|=%.4g @%d  %s (threshold %.1f)\n",
		a.Workload, pol, a.ISA, a.Vary, a.Order, a.NumTraces, a.WindowStart, a.WindowEnd,
		a.MaxAbsT, a.MaxTCycle, verdict, a.Threshold)
	fmt.Fprintf(out, "         fixed/random=%d/%d shards=%d state=%.1f KiB  %.1f traces/s\n",
		a.FixedN, a.RandomN, a.Shards, float64(a.StateBytes)/1024, a.TracesPerSec)
	if a.TaintLeakSites != nil {
		fmt.Fprintf(out, "         taint check: %d leak sites outside declassification\n", *a.TaintLeakSites)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the reports to stdout
// and warnings and failures to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	params := cliconf.DefaultAssess()
	params.AddFlags(fs)
	all := fs.Bool("all", false, "assess every policy")
	runLeakcheck := fs.Bool("leakcheck", false, "also run the dynamic taint check on each build")
	out := fs.String("o", "", "write the report as JSON to this file")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	r, err := params.Validate()
	if err != nil {
		fmt.Fprintln(stderr, "tvla:", err)
		return 2
	}

	pols := []compiler.Policy{r.PolicyV}
	if *all {
		pols = compiler.Policies()
	}

	var reports []*assessment
	for _, pol := range pols {
		rp := *r
		rp.PolicyV = pol
		a, err := assess(&rp, *runLeakcheck)
		if err != nil {
			fmt.Fprintln(stderr, "tvla:", err)
			return 1
		}
		printAssessment(stdout, stderr, a)
		reports = append(reports, a)
	}
	if *out != "" {
		var v any = reports[0]
		if *all {
			v = reports
		}
		if err := writeJSON(stdout, *out, v); err != nil {
			fmt.Fprintln(stderr, "tvla:", err)
			return 1
		}
	}
	return 0
}
