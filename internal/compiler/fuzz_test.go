package compiler

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"desmask/internal/cpu"
	"desmask/internal/mem"
	"desmask/internal/minic"
)

// randomProgram builds a random but terminating MiniC program: a pool of
// scalars and one array, a sequence of random assignments, bounded loops and
// conditionals, all results folded into `out`. The secret array feeds some
// of the expressions so every policy has something to protect.
//
// Branch conditions only ever read `p`, a scalar that is assigned public
// literals: instruction-level energy masking deliberately does not hide
// control flow, so a secret-dependent branch is a timing channel outside
// the scheme's contract (the paper's §1 points to code restructuring [3]
// for those) — and the generator must respect that contract, exactly as
// the DES/TEA/AES workloads do.
func randomProgram(rng *rand.Rand, stmts int) string {
	scalars := []string{"a", "b", "c", "d", "e"}
	var b strings.Builder
	b.WriteString("secure int key[4];\nint out[8];\nint buf[8];\n")
	b.WriteString("void main() {\n")
	for _, s := range scalars {
		fmt.Fprintf(&b, "\tint %s;\n\t%s = %d;\n", s, s, rng.Intn(1000))
	}
	b.WriteString("\tint i;\n\tint p;\n\tp = ")
	fmt.Fprintf(&b, "%d;\n", rng.Intn(100))

	expr := func() string {
		pick := func() string {
			switch rng.Intn(4) {
			case 0:
				return scalars[rng.Intn(len(scalars))]
			case 1:
				return fmt.Sprintf("%d", rng.Intn(64))
			case 2:
				return fmt.Sprintf("key[%d]", rng.Intn(4))
			default:
				return fmt.Sprintf("buf[%d]", rng.Intn(8))
			}
		}
		ops := []string{"+", "-", "*", "^", "&", "|"}
		e := pick()
		for i := 0; i < rng.Intn(3); i++ {
			e = "(" + e + " " + ops[rng.Intn(len(ops))] + " " + pick() + ")"
		}
		if rng.Intn(4) == 0 {
			e = "(" + e + fmt.Sprintf(" << %d)", rng.Intn(8))
		}
		if rng.Intn(4) == 0 {
			e = "(" + e + fmt.Sprintf(" >>> %d)", rng.Intn(8))
		}
		return e
	}

	for i := 0; i < stmts; i++ {
		switch rng.Intn(6) {
		case 0, 1, 2: // scalar assignment
			fmt.Fprintf(&b, "\t%s = %s;\n", scalars[rng.Intn(len(scalars))], expr())
		case 3: // array store at a bounded index
			fmt.Fprintf(&b, "\tbuf[(%s) & 7] = %s;\n", scalars[rng.Intn(len(scalars))], expr())
		case 4: // bounded loop
			fmt.Fprintf(&b, "\tfor (i = 0; i < %d; i = i + 1) { %s = %s + i; }\n",
				2+rng.Intn(6), scalars[rng.Intn(len(scalars))], scalars[rng.Intn(len(scalars))])
		case 5: // conditional on the public scalar only (see doc comment)
			fmt.Fprintf(&b, "\tp = %d;\n", rng.Intn(100))
			fmt.Fprintf(&b, "\tif ((p & %d) == 0) { %s = %s; } else { %s = %s; }\n",
				1+rng.Intn(7),
				scalars[rng.Intn(len(scalars))], expr(),
				scalars[rng.Intn(len(scalars))], expr())
		}
	}
	for i, s := range scalars {
		fmt.Fprintf(&b, "\tout[%d] = %s;\n", i, s)
	}
	b.WriteString("\tout[5] = buf[0];\n\tout[6] = buf[3];\n\tout[7] = buf[7];\n}\n")
	return b.String()
}

// runFuzz compiles and runs one program, returning the out[] array.
func runFuzz(t *testing.T, src string, policy Policy, secret []uint32) []uint32 {
	t.Helper()
	res, err := Compile(src, policy)
	if err != nil {
		t.Fatalf("compile(%v): %v\n%s", policy, err, src)
	}
	c := newCore(t, res.Program)
	keyAddr := res.Program.Symbols[GlobalLabel("key")]
	for i, v := range secret {
		if err := c.Mem().StoreWord(keyAddr+uint32(4*i), v); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Run(2_000_000); err != nil {
		t.Fatalf("run(%v): %v\n%s", policy, err, src)
	}
	outAddr := res.Program.Symbols[GlobalLabel("out")]
	out, err := c.Mem().ReadWords(outAddr, 8)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runFuzzRef executes the PolicyNone build on the golden model.
func runFuzzRef(t *testing.T, src string, secret []uint32) []uint32 {
	t.Helper()
	res, err := Compile(src, PolicyNone)
	if err != nil {
		t.Fatal(err)
	}
	r, err := cpu.NewRef(res.Program, mem.New())
	if err != nil {
		t.Fatal(err)
	}
	keyAddr := res.Program.Symbols[GlobalLabel("key")]
	for i, v := range secret {
		if err := r.Mem().StoreWord(keyAddr+uint32(4*i), v); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Run(2_000_000); err != nil {
		t.Fatalf("ref run: %v\n%s", err, src)
	}
	outAddr := res.Program.Symbols[GlobalLabel("out")]
	out, err := r.Mem().ReadWords(outAddr, 8)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFuzzPoliciesAgree is the compiler's differential test: random programs
// must compute identical results under every protection policy (masking may
// never change semantics), on the pipeline and on the golden model alike.
func TestFuzzPoliciesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	trials := 25
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		src := randomProgram(rng, 12)
		secret := []uint32{rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32()}
		ref := runFuzzRef(t, src, secret)
		for _, pol := range Policies() {
			got := runFuzz(t, src, pol, secret)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("trial %d, policy %v: out[%d] = %d, golden model says %d\nprogram:\n%s",
						trial, pol, i, got[i], ref[i], src)
				}
			}
		}
	}
}

// TestFuzzSelectiveMasks runs random programs under the selective policy
// with two different secrets and requires identical energy traces: the
// forward slice must cover every secret-dependent operation the generator
// can produce.
func TestFuzzSelectiveMasks(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	trials := 15
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		src := randomProgram(rng, 10)
		res, err := Compile(src, PolicySelective)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		collect := func(secret uint32) []float64 {
			c := newCore(t, res.Program)
			keyAddr := res.Program.Symbols[GlobalLabel("key")]
			for i := 0; i < 4; i++ {
				if err := c.Mem().StoreWord(keyAddr+uint32(4*i), secret^uint32(i)); err != nil {
					t.Fatal(err)
				}
			}
			meter := c.EnableMeter()
			var totals []float64
			c.Attach(cpu.ProbeFunc(func(cpu.CycleInfo) { totals = append(totals, meter.Last().Total) }))
			if err := c.Run(2_000_000); err != nil {
				t.Fatalf("trial %d: %v\n%s", trial, err, src)
			}
			return totals
		}
		a := collect(0x00000000)
		b := collect(0xffffffff)
		if len(a) != len(b) {
			t.Fatalf("trial %d: cycle counts differ (%d vs %d)\n%s", trial, len(a), len(b), src)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: cycle %d leaks (%.4f vs %.4f)\nprogram:\n%s",
					trial, i, a[i], b[i], src)
			}
		}
	}
}

// runInterp evaluates a fuzz program with the independent AST interpreter.
func runInterp(t *testing.T, src string, secret []uint32) []uint32 {
	t.Helper()
	f, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	in := minic.NewInterp(f)
	if err := in.SetGlobal("key", secret); err != nil {
		t.Fatal(err)
	}
	if err := in.Run(); err != nil {
		t.Fatalf("interp: %v\n%s", err, src)
	}
	out, err := in.Global("out")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFuzzTripleDifferential compares three independent execution paths on
// random programs: the AST interpreter, the compiled program on the
// pipelined CPU, and the compiled program on the golden model. Any
// code-generation bug that the ISA executors share is caught by the
// interpreter disagreeing.
func TestFuzzTripleDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	trials := 20
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		src := randomProgram(rng, 12)
		secret := []uint32{rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32()}
		want := runInterp(t, src, secret)
		gotPipe := runFuzz(t, src, PolicySelective, secret)
		gotRef := runFuzzRef(t, src, secret)
		for i := range want {
			if gotPipe[i] != want[i] {
				t.Fatalf("trial %d: pipeline out[%d]=%d, interpreter says %d\n%s",
					trial, i, gotPipe[i], want[i], src)
			}
			if gotRef[i] != want[i] {
				t.Fatalf("trial %d: golden model out[%d]=%d, interpreter says %d\n%s",
					trial, i, gotRef[i], want[i], src)
			}
		}
	}
}
