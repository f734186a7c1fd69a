package compiler

import (
	"math"
	"strings"
	"testing"

	"desmask/internal/asm"
	"desmask/internal/cpu"
	"desmask/internal/energy"
	"desmask/internal/gang"
	"desmask/internal/isa"
	"desmask/internal/mem"
)

// core is a one-lane run of the pipeline (internal/gang): the scalar view
// these tests drive.
type core struct{ *gang.Engine }

func (c core) Mem() *mem.Memory { return c.Lane(0).Mem }

func newCore(t *testing.T, p *asm.Program) core {
	t.Helper()
	e, err := gang.New(p, predecoded(t, p), energy.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Reset(1); err != nil {
		t.Fatal(err)
	}
	return core{e}
}

// runProgram compiles src, pokes globals, runs to halt and returns the core.
func runProgram(t *testing.T, src string, policy Policy, poke map[string]uint32) (*Result, core) {
	t.Helper()
	res, err := Compile(src, policy)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	c := newCore(t, res.Program)
	for name, v := range poke {
		addr, ok := res.Program.Symbols[GlobalLabel(name)]
		if !ok {
			t.Fatalf("no global %q", name)
		}
		if err := c.Mem().StoreWord(addr, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Run(5_000_000); err != nil {
		t.Fatalf("run: %v\nasm:\n%s", err, res.Asm)
	}
	return res, c
}

// global reads a global scalar or array element after the run.
func global(t *testing.T, res *Result, c core, name string, idx int) uint32 {
	t.Helper()
	addr, ok := res.Program.Symbols[GlobalLabel(name)]
	if !ok {
		t.Fatalf("no global %q", name)
	}
	v, err := c.Mem().LoadWord(addr + uint32(4*idx))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestEndToEndArithmetic(t *testing.T) {
	src := `
		int out[8];
		void main() {
			int a; int b;
			a = 21; b = 3;
			out[0] = a + b;
			out[1] = a - b;
			out[2] = a * b;
			out[3] = a ^ b;
			out[4] = a & b;
			out[5] = a | b;
			out[6] = a << 2;
			out[7] = a >> 1;
		}
	`
	res, c := runProgram(t, src, PolicyNone, nil)
	want := []uint32{24, 18, 63, 22, 1, 23, 84, 10}
	for i, w := range want {
		if got := global(t, res, c, "out", i); got != w {
			t.Errorf("out[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestEndToEndComparisons(t *testing.T) {
	src := `
		int out[8];
		void main() {
			int a; int b;
			a = 5; b = 9;
			out[0] = a < b;
			out[1] = a > b;
			out[2] = a <= b;
			out[3] = a >= b;
			out[4] = a == b;
			out[5] = a != b;
			out[6] = b <= b;
			out[7] = b >= b;
		}
	`
	res, c := runProgram(t, src, PolicyNone, nil)
	want := []uint32{1, 0, 1, 0, 0, 1, 1, 1}
	for i, w := range want {
		if got := global(t, res, c, "out", i); got != w {
			t.Errorf("out[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestEndToEndUnary(t *testing.T) {
	src := `
		int out[3];
		void main() {
			int a;
			a = 5;
			out[0] = -a;
			out[1] = ~a;
			out[2] = !a + !0;
		}
	`
	res, c := runProgram(t, src, PolicyNone, nil)
	if got := int32(global(t, res, c, "out", 0)); got != -5 {
		t.Errorf("-a = %d", got)
	}
	if got := global(t, res, c, "out", 1); got != ^uint32(5) {
		t.Errorf("~a = %#x", got)
	}
	if got := global(t, res, c, "out", 2); got != 1 {
		t.Errorf("!a + !0 = %d", got)
	}
}

func TestEndToEndLoops(t *testing.T) {
	src := `
		int out[2];
		void main() {
			int i; int sum;
			sum = 0;
			for (i = 1; i <= 10; i = i + 1) { sum = sum + i; }
			out[0] = sum;
			sum = 0;
			i = 5;
			while (i > 0) { sum = sum + 2; i = i - 1; }
			out[1] = sum;
		}
	`
	res, c := runProgram(t, src, PolicyNone, nil)
	if got := global(t, res, c, "out", 0); got != 55 {
		t.Errorf("for sum = %d, want 55", got)
	}
	if got := global(t, res, c, "out", 1); got != 10 {
		t.Errorf("while sum = %d, want 10", got)
	}
}

func TestEndToEndIfElse(t *testing.T) {
	src := `
		int out[3];
		void main() {
			int i;
			for (i = 0; i < 3; i = i + 1) {
				if (i == 0) { out[i] = 10; }
				else if (i == 1) { out[i] = 20; }
				else { out[i] = 30; }
			}
		}
	`
	res, c := runProgram(t, src, PolicyNone, nil)
	for i, w := range []uint32{10, 20, 30} {
		if got := global(t, res, c, "out", i); got != w {
			t.Errorf("out[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestEndToEndFunctions(t *testing.T) {
	src := `
		int out[3];
		int add(int a, int b) { return a + b; }
		int fib(int n) {
			if (n < 2) { return n; }
			return fib(n - 1) + fib(n - 2);
		}
		void main() {
			out[0] = add(2, 3);
			out[1] = fib(10);
			out[2] = add(fib(5), add(1, 1));
		}
	`
	res, c := runProgram(t, src, PolicyNone, nil)
	if got := global(t, res, c, "out", 0); got != 5 {
		t.Errorf("add = %d", got)
	}
	if got := global(t, res, c, "out", 1); got != 55 {
		t.Errorf("fib(10) = %d, want 55", got)
	}
	if got := global(t, res, c, "out", 2); got != 7 {
		t.Errorf("nested calls = %d, want 7", got)
	}
}

func TestEndToEndArraysAndGlobalInit(t *testing.T) {
	src := `
		int tab[4] = { 10, 20, 30, 40 };
		int out[4];
		void main() {
			int i;
			int loc[4];
			for (i = 0; i < 4; i = i + 1) { loc[i] = tab[3 - i]; }
			for (i = 0; i < 4; i = i + 1) { out[i] = loc[i]; }
		}
	`
	res, c := runProgram(t, src, PolicyNone, nil)
	for i, w := range []uint32{40, 30, 20, 10} {
		if got := global(t, res, c, "out", i); got != w {
			t.Errorf("out[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestResultsIdenticalAcrossPolicies(t *testing.T) {
	src := `
		secure int key[4];
		int out[4];
		void main() {
			int i;
			for (i = 0; i < 4; i = i + 1) { out[i] = key[i] ^ 5; }
		}
	`
	poke := map[string]uint32{"key": 9}
	var ref []uint32
	for _, pol := range Policies() {
		res, c := runProgram(t, src, pol, poke)
		var got []uint32
		for i := 0; i < 4; i++ {
			got = append(got, global(t, res, c, "out", i))
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("policy %v: out[%d] = %d, want %d", pol, i, got[i], ref[i])
			}
		}
	}
	if ref[0] != 9^5 {
		t.Errorf("out[0] = %d, want %d", ref[0], 9^5)
	}
}

// TestFigure4Shape reproduces the paper's Figure 4: in the left-side copy
// loop `newL[i] = oldR[i]`, only the data load and store become secure; the
// loop-index bookkeeping stays insecure.
func TestFigure4Shape(t *testing.T) {
	src := `
		secure int key[4];
		int oldR[32];
		int newL[32];
		void main() {
			int i;
			for (i = 0; i < 32; i = i + 1) { oldR[i] = key[0]; }
			for (i = 0; i < 32; i = i + 1) { newL[i] = oldR[i]; }
		}
	`
	res, err := Compile(src, PolicySelective)
	if err != nil {
		t.Fatal(err)
	}
	// oldR is in the forward slice (assigned from key), so newL becomes
	// tainted too.
	joined := strings.Join(res.Report.Tainted, ",")
	for _, want := range []string{"key", "oldR", "newL"} {
		if !strings.Contains(joined, want) {
			t.Errorf("forward slice %q missing %q", joined, want)
		}
	}
	if strings.Contains(joined, "main/i") {
		t.Errorf("loop index wrongly tainted: %q", joined)
	}
	// The emitted code must contain secure data accesses AND insecure index
	// bookkeeping.
	if !strings.Contains(res.Asm, "lw.s") || !strings.Contains(res.Asm, "sw.s") {
		t.Error("missing secure load/store in output")
	}
	if !strings.Contains(res.Asm, "\tlw ") && !strings.Contains(res.Asm, "\tlw\t") {
		t.Error("index loads should remain insecure")
	}
	if res.Report.SecureLoads == res.Report.TotalLoads {
		t.Error("selective policy secured every load; should be selective")
	}
}

func TestPolicyOrdering(t *testing.T) {
	src := `
		secure int key[4];
		int out[4];
		void main() {
			int i; int t;
			for (i = 0; i < 4; i = i + 1) {
				t = key[i] ^ i;
				out[i] = t;
			}
		}
	`
	counts := map[Policy]int{}
	for _, pol := range Policies() {
		res, err := Compile(src, pol)
		if err != nil {
			t.Fatal(err)
		}
		counts[pol] = res.Report.SecuredOps
	}
	if counts[PolicyNone] != 0 {
		t.Errorf("none secured %d ops", counts[PolicyNone])
	}
	if !(counts[PolicySeedsOnly] <= counts[PolicySelective]) {
		t.Errorf("seeds-only (%d) should secure no more than selective (%d)", counts[PolicySeedsOnly], counts[PolicySelective])
	}
	if !(counts[PolicySelective] < counts[PolicyAllSecure]) {
		t.Errorf("selective (%d) should secure fewer than all-secure (%d)", counts[PolicySelective], counts[PolicyAllSecure])
	}
	if counts[PolicySeedsOnly] == 0 {
		t.Error("seeds-only secured nothing")
	}
}

func TestForwardSlicingVsSeedsOnly(t *testing.T) {
	// derived = key[0]; out = derived ^ 1 — the second statement is only
	// protected when slicing is on.
	src := `
		secure int key[1];
		int derived;
		int out;
		void main() {
			derived = key[0];
			out = derived ^ 1;
		}
	`
	sel, err := Compile(src, PolicySelective)
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := Compile(src, PolicySeedsOnly)
	if err != nil {
		t.Fatal(err)
	}
	if seeds.Report.SecuredOps >= sel.Report.SecuredOps {
		t.Errorf("seeds-only (%d ops) should protect less than selective (%d ops)",
			seeds.Report.SecuredOps, sel.Report.SecuredOps)
	}
	// The xor in the second statement: selective secures it, seeds-only not.
	if !strings.Contains(sel.Asm, "xor.s") {
		t.Error("selective should secure the derived xor")
	}
	if strings.Contains(seeds.Asm, "xor.s") {
		t.Error("seeds-only must not secure the derived xor")
	}
}

func TestControlDependenceTaint(t *testing.T) {
	src := `
		secure int key[1];
		int out;
		void main() {
			if (key[0] > 0) { out = 1; } else { out = 2; }
		}
	`
	res, err := Compile(src, PolicySelective)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range res.Report.Tainted {
		if v == "out" {
			found = true
		}
	}
	if !found {
		t.Errorf("control-dependent variable not in slice: %v", res.Report.Tainted)
	}
}

func TestCallTaintPropagation(t *testing.T) {
	src := `
		secure int key[1];
		int out;
		int clean;
		int pass(int x) { return x; }
		void main() {
			out = pass(key[0]);
			clean = pass(0);
		}
	`
	res, err := Compile(src, PolicySelective)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(res.Report.Tainted, ",")
	if !strings.Contains(joined, "out") || !strings.Contains(joined, "pass/x") {
		t.Errorf("call taint lost: %q", joined)
	}
	// Context-insensitivity makes clean tainted too (conservative) — it
	// must at least not crash; document the conservatism.
	if !res.Analysis.ReturnTainted["pass"] {
		t.Error("pass should have tainted return")
	}
}

func TestSecureIndexing(t *testing.T) {
	// S-box style lookup with a key-derived index: the index scaling,
	// address formation and the load itself must be secure.
	src := `
		secure int key[1];
		int sbox[64];
		int out;
		void main() {
			out = sbox[key[0] & 63];
		}
	`
	res, err := Compile(src, PolicySelective)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"sll.s", "addu.s", "lw.s"} {
		if !strings.Contains(res.Asm, m) {
			t.Errorf("secure indexing must emit %s; asm:\n%s", m, res.Asm)
		}
	}
}

func TestSemaErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"no main", "int x;", "no main"},
		{"bad main", "int main() { return 1; }", "main must be void"},
		{"undef var", "void main() { x = 1; }", "undefined variable"},
		{"undef func", "void main() { f(); }", "undefined function"},
		{"arity", "int f(int a) { return a; } void main() { f(); }", "0 arguments, want 1"},
		{"array as value", "int a[2]; void main() { a = 1; }", "cannot assign to array"},
		{"index scalar", "int a; void main() { a[0] = 1; }", "indexing non-array"},
		{"array value use", "int a[2]; int b; void main() { b = a; }", "used as a value"},
		{"dup local", "void main() { int x; int x; }", "duplicate local"},
		{"dup param", "void f(int a, int a) { } void main() { }", "duplicate parameter"},
		{"void return value", "void main() { return 1; }", "cannot return a value"},
		{"missing return value", "int f() { return; } void main() { }", "must return a value"},
		{"local array init", "void main() { int a[2] = {1}; }", "cannot have an initializer"},
		{"void as value", "void f() { } void main() { int x; x = f(); }", "used as a value"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile(c.src, PolicyNone)
			if err == nil {
				t.Fatalf("compile succeeded, want error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q missing %q", err, c.want)
			}
		})
	}
}

// tracesOf compiles and runs under a policy with two different secret values,
// returning the two per-cycle traces.
func tracesOf(t *testing.T, src string, policy Policy, a, b uint32) ([]float64, []float64) {
	t.Helper()
	collect := func(secret uint32) []float64 {
		res, err := Compile(src, policy)
		if err != nil {
			t.Fatal(err)
		}
		c := newCore(t, res.Program)
		addr := res.Program.Symbols[GlobalLabel("key")]
		if err := c.Mem().StoreWord(addr, secret); err != nil {
			t.Fatal(err)
		}
		meter := c.EnableMeter()
		var totals []float64
		c.Attach(cpu.ProbeFunc(func(cpu.CycleInfo) { totals = append(totals, meter.Last().Total) }))
		if err := c.Run(5_000_000); err != nil {
			t.Fatal(err)
		}
		return totals
	}
	return collect(a), collect(b)
}

const maskingTestSrc = `
	secure int key[1];
	int sbox[64];
	int out[8];
	void main() {
		int i; int t;
		for (i = 0; i < 64; i = i + 1) { sbox[i] = i * 7 & 63; }
		for (i = 0; i < 8; i = i + 1) {
			t = key[0] ^ i;
			out[i] = sbox[t & 63] + (t << 2);
		}
	}
`

func TestSelectiveMasksSecretCompletely(t *testing.T) {
	a, b := tracesOf(t, maskingTestSrc, PolicySelective, 0x0000000, 0xfffffff)
	if len(a) != len(b) {
		t.Fatalf("cycle counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatalf("cycle %d leaks under selective masking: %.4f vs %.4f", i, a[i], b[i])
		}
	}
}

func TestNoneLeaksSecret(t *testing.T) {
	a, b := tracesOf(t, maskingTestSrc, PolicyNone, 0x0000000, 0xfffffff)
	var diff float64
	for i := range a {
		diff += math.Abs(a[i] - b[i])
	}
	if diff < 1e-9 {
		t.Error("unmasked program should leak the secret")
	}
}

func TestSeedsOnlyStillLeaks(t *testing.T) {
	// The ablation: without forward slicing, derived values leak.
	a, b := tracesOf(t, maskingTestSrc, PolicySeedsOnly, 0x0000000, 0xfffffff)
	var diff float64
	for i := range a {
		diff += math.Abs(a[i] - b[i])
	}
	if diff < 1e-9 {
		t.Error("seeds-only masking should still leak through derived values")
	}
}

func TestAllSecureMasksToo(t *testing.T) {
	a, b := tracesOf(t, maskingTestSrc, PolicyAllSecure, 0x0000000, 0xfffffff)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatalf("cycle %d leaks under all-secure", i)
		}
	}
}

func TestEnergyOrderingAcrossPolicies(t *testing.T) {
	totals := map[Policy]float64{}
	for _, pol := range Policies() {
		res, err := Compile(maskingTestSrc, pol)
		if err != nil {
			t.Fatal(err)
		}
		c := newCore(t, res.Program)
		addr := res.Program.Symbols[GlobalLabel("key")]
		if err := c.Mem().StoreWord(addr, 0x123); err != nil {
			t.Fatal(err)
		}
		meter := c.EnableMeter()
		if err := c.Run(5_000_000); err != nil {
			t.Fatal(err)
		}
		totals[pol] = meter.TotalPJ()
	}
	if !(totals[PolicyNone] < totals[PolicySelective]) {
		t.Errorf("none (%.0f) should cost less than selective (%.0f)", totals[PolicyNone], totals[PolicySelective])
	}
	if !(totals[PolicySelective] < totals[PolicyNaiveLoadStore]) {
		t.Errorf("selective (%.0f) should cost less than naive (%.0f)", totals[PolicySelective], totals[PolicyNaiveLoadStore])
	}
	if !(totals[PolicyNaiveLoadStore] < totals[PolicyAllSecure]) {
		t.Errorf("naive (%.0f) should cost less than all-secure (%.0f)", totals[PolicyNaiveLoadStore], totals[PolicyAllSecure])
	}
	ratio := totals[PolicyAllSecure] / totals[PolicyNone]
	if ratio < 1.2 || ratio > 2.5 {
		t.Errorf("all-secure/none ratio = %.2f, want roughly paper's ~1.8x", ratio)
	}
}

func TestPolicyString(t *testing.T) {
	for _, pol := range Policies() {
		if strings.Contains(pol.String(), "?") {
			t.Errorf("policy %d has no name", pol)
		}
	}
}

func TestReportString(t *testing.T) {
	res, err := Compile(maskingTestSrc, PolicySelective)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Report.String()
	for _, want := range []string{"selective", "seeds:", "forward slice:", "key"} {
		if !strings.Contains(s, want) {
			t.Errorf("report %q missing %q", s, want)
		}
	}
}

func TestExpressionDepthLimit(t *testing.T) {
	// Build an expression deeper than the register pool.
	expr := "1"
	for i := 0; i < 20; i++ {
		expr = "(" + expr + " + (2 * (3 + (4"
	}
	for i := 0; i < 20; i++ {
		expr += "))))"
	}
	src := "int x; void main() { x = " + expr + "; }"
	_, err := Compile(src, PolicyNone)
	if err == nil || !strings.Contains(err.Error(), "too deep") {
		t.Errorf("err = %v, want depth error", err)
	}
}

func TestNegativeGlobalInit(t *testing.T) {
	src := `
		int g = -7;
		int out;
		void main() { out = g; }
	`
	res, c := runProgram(t, src, PolicyNone, nil)
	if got := int32(global(t, res, c, "out", 0)); got != -7 {
		t.Errorf("out = %d, want -7", got)
	}
}

func TestLocalScalarInit(t *testing.T) {
	src := `
		int out;
		void main() {
			int x = 42;
			out = x;
		}
	`
	res, c := runProgram(t, src, PolicyNone, nil)
	if got := global(t, res, c, "out", 0); got != 42 {
		t.Errorf("out = %d, want 42", got)
	}
}

func TestRegisterSaveAcrossCalls(t *testing.T) {
	// f(a) + g(b): f's result must survive the call to g.
	src := `
		int out;
		int f(int x) { return x * 3; }
		int g(int x) { return x + 1; }
		void main() {
			out = f(5) + g(10);
		}
	`
	res, c := runProgram(t, src, PolicyNone, nil)
	if got := global(t, res, c, "out", 0); got != 26 {
		t.Errorf("out = %d, want 26", got)
	}
}

func TestTaintedSpillsStaySecure(t *testing.T) {
	// A tainted intermediate held across a call must be spilled with a
	// secure store so it does not leak.
	src := `
		secure int key[1];
		int out;
		int id(int x) { return x; }
		void main() {
			out = key[0] + id(1);
		}
	`
	a, b := tracesOf(t, src, PolicySelective, 0, 0xffffffff)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatalf("cycle %d leaks through spill", i)
		}
	}
}

func TestPublicIntrinsic(t *testing.T) {
	src := `
		secure int key[1];
		int cipher;
		void main() {
			cipher = public(key[0] ^ 3);
		}
	`
	res, err := Compile(src, PolicySelective)
	if err != nil {
		t.Fatal(err)
	}
	// Inside public(): no secure ops at all, and cipher stays untainted.
	if strings.Contains(res.Asm, ".s ") {
		t.Errorf("public() region must not emit secure ops:\n%s", res.Asm)
	}
	for _, v := range res.Report.Tainted {
		if v == "cipher" {
			t.Error("declassified destination wrongly tainted")
		}
	}
	// Semantics unchanged.
	_, c := runProgram(t, src, PolicySelective, map[string]uint32{"key": 5})
	addr := res.Program.Symbols[GlobalLabel("cipher")]
	if v, _ := c.Mem().LoadWord(addr); v != 5^3 {
		t.Errorf("cipher = %d, want %d", v, 5^3)
	}
}

func TestPublicErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"arity", "void main() { int x; x = public(1, 2); }", "exactly one argument"},
		{"reserved", "int public(int x) { return x; } void main() { int y; y = public(1); }", "reserved"},
		{"statement", "void main() { public(1); }", "no effect as a statement"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile(c.src, PolicyNone)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want %q", err, c.want)
			}
		})
	}
}

func TestTaintedArgumentStaysMasked(t *testing.T) {
	// A tainted value passed as an argument must stay masked through the
	// $a-register move and the callee's parameter-homing store.
	src := `
		secure int key[1];
		int out;
		int id(int x) { return x; }
		void main() {
			out = id(key[0]);
		}
	`
	a, b := tracesOf(t, src, PolicySelective, 0, 0xffffffff)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatalf("cycle %d leaks through argument passing", i)
		}
	}
}

func TestLogicalVsArithmeticShift(t *testing.T) {
	src := `
		int out[4];
		void main() {
			int a; int n;
			a = -16;
			n = 2;
			out[0] = a >> 2;    // arithmetic: -4
			out[1] = a >>> 2;   // logical: 0x3FFFFFFC
			out[2] = a >> n;    // variable arithmetic
			out[3] = a >>> n;   // variable logical
		}
	`
	res, c := runProgram(t, src, PolicyNone, nil)
	if got := int32(global(t, res, c, "out", 0)); got != -4 {
		t.Errorf("arithmetic >> = %d, want -4", got)
	}
	if got := global(t, res, c, "out", 1); got != 0x3FFFFFFC {
		t.Errorf("logical >>> = %#x, want 0x3FFFFFFC", got)
	}
	if got := int32(global(t, res, c, "out", 2)); got != -4 {
		t.Errorf("variable arithmetic >> = %d", got)
	}
	if got := global(t, res, c, "out", 3); got != 0x3FFFFFFC {
		t.Errorf("variable logical >>> = %#x", got)
	}
}

func TestTimingChannelWarning(t *testing.T) {
	src := `
		secure int key[1];
		int out;
		void main() {
			if (key[0] > 0) { out = 1; } else { out = 2; }
			while (out < key[0]) { out = out + 1; }
		}
	`
	res, err := Compile(src, PolicySelective)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.TimingWarnings) != 2 {
		t.Errorf("warnings = %v, want 2 (if + while)", res.Report.TimingWarnings)
	}
	if !strings.Contains(res.Report.String(), "cannot hide control flow") {
		t.Error("report does not render timing warnings")
	}
	// Clean programs carry no warnings.
	clean, err := Compile("secure int key[1]; int out; void main() { out = key[0] ^ 1; }", PolicySelective)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Report.TimingWarnings) != 0 {
		t.Errorf("unexpected warnings: %v", clean.Report.TimingWarnings)
	}
}

func TestWorkloadsHaveNoTimingWarnings(t *testing.T) {
	// The DES program (and by extension the paper's workload) must be free
	// of secret-dependent control flow.
	res, err := Compile(maskingTestSrc, PolicySelective)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.TimingWarnings) != 0 {
		t.Errorf("masking test source has timing warnings: %v", res.Report.TimingWarnings)
	}
}

// predecoded returns p's micro-op table, failing the test on error.
func predecoded(t *testing.T, p *asm.Program) []isa.UOp {
	t.Helper()
	uops, err := gang.Predecode(p)
	if err != nil {
		t.Fatal(err)
	}
	return uops
}
