package compiler

import (
	"math"
	"math/rand"
	"testing"

	"desmask/internal/cpu"
	"desmask/internal/minic"
)

func TestConstantFolding(t *testing.T) {
	src := `
		int out[4];
		void main() {
			out[0] = 2 + 3 * 4;
			out[1] = (1 << 8) | 15;
			out[2] = -(7 - 10) + !0 + ~0;
			out[3] = (100 >>> 2) ^ (5 < 6);
		}
	`
	opt, err := CompileWithOptions(src, Options{Policy: PolicyNone, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Report.FoldedConstants == 0 {
		t.Error("no constants folded")
	}
	plain, err := Compile(src, PolicyNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Program.Text) >= len(plain.Program.Text) {
		t.Errorf("optimized program (%d insts) not smaller than plain (%d)",
			len(opt.Program.Text), len(plain.Program.Text))
	}
	// Results must match.
	run := func(res *Result) []uint32 {
		c := newCore(t, res.Program)
		if err := c.Run(100000); err != nil {
			t.Fatal(err)
		}
		out, err := c.Mem().ReadWords(res.Program.Symbols[GlobalLabel("out")], 4)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(opt), run(plain)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("out[%d]: optimized %d, plain %d", i, a[i], b[i])
		}
	}
	if a[0] != 14 || a[1] != 271 {
		t.Errorf("folded values wrong: %v", a)
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	src := `
		secure int key[1];
		int out[2];
		void main() {
			int t;
			t = key[0] ^ 3;
			out[0] = t;
			t = 5;
			out[1] = t + t;
		}
	`
	res, err := CompileWithOptions(src, Options{Policy: PolicySelective, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.ForwardedLoads == 0 {
		t.Error("no loads forwarded")
	}
	plain, err := Compile(src, PolicySelective)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Program.Text) >= len(plain.Program.Text) {
		t.Errorf("optimized program (%d insts) not smaller than plain (%d)",
			len(res.Program.Text), len(plain.Program.Text))
	}
}

// TestOptimizedFuzzAgrees re-runs the policy-differential fuzz with the
// optimizer on: results must match the unoptimized golden model, and the
// masking invariant must survive optimization.
func TestOptimizedFuzzAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	trials := 15
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		src := randomProgram(rng, 10)
		secret := []uint32{rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32()}
		ref := runFuzzRef(t, src, secret)
		for _, pol := range Policies() {
			res, err := CompileWithOptions(src, Options{Policy: pol, Optimize: true})
			if err != nil {
				t.Fatalf("trial %d: %v\n%s", trial, err, src)
			}
			got := runFuzzCompiled(t, res, secret)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("trial %d policy %v optimized: out[%d]=%d want %d\n%s",
						trial, pol, i, got[i], ref[i], src)
				}
			}
		}
	}
}

func TestOptimizedMaskingStillFlat(t *testing.T) {
	res, err := CompileWithOptions(maskingTestSrc, Options{Policy: PolicySelective, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	collect := func(secret uint32) []float64 {
		c := newCore(t, res.Program)
		if err := c.Mem().StoreWord(res.Program.Symbols[GlobalLabel("key")], secret); err != nil {
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
	a, b := collect(0), collect(0xffffffff)
	if len(a) != len(b) {
		t.Fatalf("cycle counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatalf("cycle %d leaks with optimization on", i)
		}
	}
}

func TestEvalBinOpCoverage(t *testing.T) {
	cases := []struct {
		op   minic.BinOp
		a, b int32
		want int32
	}{
		{minic.OpAdd, 7, 3, 10}, {minic.OpSub, 7, 3, 4}, {minic.OpMul, 7, 3, 21},
		{minic.OpXor, 7, 3, 4}, {minic.OpAnd, 7, 3, 3}, {minic.OpOr, 4, 3, 7},
		{minic.OpShl, 1, 4, 16}, {minic.OpShr, -8, 2, -2}, {minic.OpShrU, -8, 30, 3},
		{minic.OpLt, 1, 2, 1}, {minic.OpLe, 2, 2, 1}, {minic.OpGt, 1, 2, 0},
		{minic.OpGe, 1, 2, 0}, {minic.OpEq, 5, 5, 1}, {minic.OpNe, 5, 5, 0},
	}
	for _, c := range cases {
		got, ok := evalBinOp(c.op, c.a, c.b)
		if !ok || got != c.want {
			t.Errorf("%d %v %d = %d (%v), want %d", c.a, c.op, c.b, got, ok, c.want)
		}
	}
}

// runFuzzCompiled executes an already-compiled fuzz program.
func runFuzzCompiled(t *testing.T, res *Result, secret []uint32) []uint32 {
	t.Helper()
	c := newCore(t, res.Program)
	keyAddr := res.Program.Symbols[GlobalLabel("key")]
	for i, v := range secret {
		if err := c.Mem().StoreWord(keyAddr+uint32(4*i), v); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	out, err := c.Mem().ReadWords(res.Program.Symbols[GlobalLabel("out")], 8)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
