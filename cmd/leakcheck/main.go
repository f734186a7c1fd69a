// Command leakcheck compiles a MiniC program and verifies its masking with
// dynamic taint tracking: the `secure` globals are tainted, the program is
// executed on a shadow-taint interpreter, and every instruction that touches
// secret-derived data without its secure bit is reported.
//
// Usage:
//
//	leakcheck [-policy selective] prog.c
//	leakcheck -all prog.c
//
// -all checks the program under every protection policy in parallel and
// prints one summary row per policy. Exit status 1 when leaks are found
// (declassification via public() excluded by listing, not by exit status —
// review the report).
package main

import (
	"flag"
	"fmt"
	"os"

	"desmask/internal/cliconf"
	"desmask/internal/compiler"
	"desmask/internal/leakcheck"
	"desmask/internal/sim"
)

func main() {
	policyStr := flag.String("policy", "selective", "protection policy: "+cliconf.PolicyUsage())
	all := flag.Bool("all", false, "check every policy in parallel and print a summary table")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: leakcheck [flags] prog.c")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "leakcheck:", err)
		os.Exit(1)
	}
	if *all {
		if err := checkAll(string(src)); err != nil {
			fmt.Fprintln(os.Stderr, "leakcheck:", err)
			os.Exit(1)
		}
		return
	}
	policy, err := cliconf.ParsePolicy(*policyStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "leakcheck:", err)
		os.Exit(2)
	}
	res, err := compiler.Compile(string(src), policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "leakcheck:", err)
		os.Exit(1)
	}
	for _, w := range res.Report.TimingWarnings {
		fmt.Printf("warning: %s: secret-dependent branch (timing channel)\n", w)
	}

	c, err := leakcheck.New(res.Program)
	if err != nil {
		fmt.Fprintln(os.Stderr, "leakcheck:", err)
		os.Exit(1)
	}
	tainted, err := taintSecrets(c, res)
	for _, g := range tainted {
		fmt.Printf("tainted %s[%d words] at %#x\n", g.name, g.words, g.addr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "leakcheck:", err)
		os.Exit(1)
	}

	rep, err := c.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "leakcheck:", err)
		os.Exit(1)
	}
	fmt.Printf("executed %d instructions; %d secure instructions ran on clean data\n",
		rep.Insts, rep.SecureInsecureData)
	if len(rep.Leaks) == 0 {
		fmt.Println("no insecure instruction ever touched secret-derived data")
		return
	}
	fmt.Printf("%d leaking instruction sites (%d dynamic occurrences):\n",
		len(rep.Leaks), rep.LeakCount())
	for _, l := range rep.Leaks {
		region := ""
		if name, ok := res.Program.SymbolAt(l.PC); ok {
			region = " in " + name
		}
		fmt.Printf("  pc %#06x%s: %-28v x%d\n", l.PC, region, l.Inst, l.Count)
	}
	fmt.Println("note: leaks inside public() declassification regions are expected;")
	fmt.Println("anything else is exploitable by differential power analysis.")
	os.Exit(1)
}

// checkAll compiles the program under every policy and runs the shadow-taint
// checks as one parallel batch through the leakcheck worker pool.
func checkAll(src string) error {
	pols := compiler.Policies()
	results := make([]*compiler.Result, len(pols))
	if err := sim.ForEach(len(pols), 0, func(i int) error {
		res, err := compiler.Compile(src, pols[i])
		results[i] = res
		return err
	}); err != nil {
		return err
	}
	jobs := make([]leakcheck.CheckJob, len(pols))
	for i, res := range results {
		res := res
		jobs[i] = leakcheck.CheckJob{
			Prog: res.Program,
			Setup: func(c *leakcheck.Checker) error {
				_, err := taintSecrets(c, res)
				return err
			},
		}
	}
	reports, err := leakcheck.RunBatch(jobs, 0)
	if err != nil {
		return err
	}
	leaking := false
	fmt.Printf("%-16s %12s %12s %14s %12s\n", "policy", "leak sites", "dynamic", "wasted-secure", "insts")
	for i, rep := range reports {
		if len(rep.Leaks) > 0 {
			leaking = true
		}
		fmt.Printf("%-16s %12d %12d %14d %12d\n",
			pols[i], len(rep.Leaks), rep.LeakCount(), rep.SecureInsecureData, rep.Insts)
	}
	if leaking {
		fmt.Println("note: leaks inside public() declassification regions are expected;")
		fmt.Println("anything else is exploitable by differential power analysis.")
		os.Exit(1)
	}
	return nil
}

// secretGlobal is one secure global taintSecrets tainted.
type secretGlobal struct {
	name  string
	words int
	addr  uint32
}

// taintSecrets fills and taints every secure global with deterministic
// values and returns the globals it tainted, in seed order, up to any
// failure.
func taintSecrets(c *leakcheck.Checker, res *compiler.Result) ([]secretGlobal, error) {
	var tainted []secretGlobal
	for _, seed := range res.Report.Seeds {
		g := res.Analysis.File.FindGlobal(seed)
		if g == nil {
			continue // function-local seed: tainted when written
		}
		n := 1
		if g.IsArray {
			n = g.ArrayLen
		}
		addr, ok := res.Program.Symbols[compiler.GlobalLabel(g.Name)]
		if !ok {
			return tainted, fmt.Errorf("no symbol for secure global %q", g.Name)
		}
		for i := 0; i < n; i++ {
			if err := c.SetWord(addr+uint32(4*i), uint32(i)*0x9e37+1, true); err != nil {
				return tainted, err
			}
		}
		tainted = append(tainted, secretGlobal{g.Name, n, addr})
	}
	return tainted, nil
}
