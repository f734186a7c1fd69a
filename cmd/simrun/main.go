// Command simrun executes a program on the cycle-accurate simulator through
// a simulation session, optionally dumping the per-cycle energy trace as
// CSV. The input is either a .s file assembled for the PISA target, or — with
// -c — MiniC source compiled in-process for any registered ISA backend (the
// text assembler is PISA-only, so non-PISA targets require -c).
//
// Usage:
//
//	simrun [-max N] [-trace out.csv] [-bucket N] [-listing] [-regs] prog.s
//	simrun -c [-policy selective] [-isa pisa] [-O] prog.c
package main

import (
	"flag"
	"fmt"
	"os"

	"desmask/internal/asm"
	"desmask/internal/cliconf"
	"desmask/internal/compiler"
	"desmask/internal/cpu"
	"desmask/internal/energy"
	"desmask/internal/isa"
	"desmask/internal/sim"
	"desmask/internal/trace"
)

func main() {
	compile := flag.Bool("c", false, "input is MiniC source; compile it in-process (required for non-PISA targets)")
	policyStr := flag.String("policy", "selective", "protection policy with -c: "+cliconf.PolicyUsage())
	isaStr := flag.String("isa", "", "target ISA backend with -c: "+isa.TargetUsage())
	optimize := flag.Bool("O", false, "enable the optimization passes with -c")
	maxCycles := flag.Uint64("max", 10_000_000, "maximum simulated cycles")
	traceOut := flag.String("trace", "", "write the per-cycle energy trace to this CSV file")
	bucket := flag.Int("bucket", 1, "aggregate the trace every N cycles (with -trace)")
	listing := flag.Bool("listing", false, "print the disassembly listing before running")
	regs := flag.Bool("regs", false, "dump register values after the run")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: simrun [flags] prog.s  |  simrun -c [flags] prog.c")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "simrun:", err)
		os.Exit(1)
	}
	var prog *asm.Program
	if *compile {
		policy, err := cliconf.ParsePolicy(*policyStr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simrun:", err)
			os.Exit(2)
		}
		target, err := cliconf.ParseISA(*isaStr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simrun:", err)
			os.Exit(2)
		}
		res, err := compiler.CompileWithOptions(string(src), compiler.Options{
			Policy: policy, Target: target, Optimize: *optimize,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "simrun:", err)
			os.Exit(1)
		}
		prog = res.Program
	} else {
		if *isaStr != "" && *isaStr != isa.PISA.Name() {
			fmt.Fprintf(os.Stderr, "simrun: -isa %s requires -c; the text assembler is PISA-only\n", *isaStr)
			os.Exit(2)
		}
		prog, err = asm.Assemble(string(src))
		if err != nil {
			fmt.Fprintln(os.Stderr, "simrun:", err)
			os.Exit(1)
		}
	}
	if *listing {
		fmt.Print(prog.Listing())
	}
	runner := sim.NewRunner(prog, energy.DefaultConfig())
	res := runner.Run(sim.Job{MaxCycles: *maxCycles, Trace: *traceOut != ""})
	st := res.Stats
	fmt.Printf("halted=%v cycles=%d insts=%d secure-insts=%d stalls=%d flushes=%d\n",
		res.Done, st.Cycles, st.Insts, st.SecureInst, st.Stalls, st.Flushes)
	fmt.Printf("energy=%.3f uJ avg=%.2f pJ/cycle\n", st.Energy.Total/1e6, st.AvgPJPerCycle())
	fmt.Printf("exit status ($v0) = %d\n", int32(res.Regs[isa.V0]))
	runErr := res.Err
	if runErr == nil && !res.Done {
		runErr = &cpu.CycleLimitError{Limit: *maxCycles}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "simrun:", runErr)
	}
	if *regs {
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			fmt.Printf("%-6s %#08x\n", r, res.Regs[r])
		}
	}
	if *traceOut != "" && res.Trace != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simrun:", err)
			os.Exit(1)
		}
		defer f.Close()
		series := res.Trace.Totals
		width := 1
		if *bucket > 1 {
			series = trace.Bucket(res.Trace.Totals, *bucket)
			width = *bucket
		}
		if err := trace.WriteCSV(f, []string{"cycle", "pj"},
			trace.Series(len(series), width), series); err != nil {
			fmt.Fprintln(os.Stderr, "simrun:", err)
			os.Exit(1)
		}
	}
	if runErr != nil {
		os.Exit(1)
	}
}
