// custom-program shows the masking compiler on a user kernel that is not
// DES: a toy MAC that mixes a secret key into a message. Annotating the key
// `secure` is all the programmer does; forward slicing finds the derived
// values, the emitted assembly secures exactly the key-dependent
// operations, and two runs with different secrets produce cycle-identical
// energy traces.
package main

import (
	"fmt"
	"log"
	"math"
	"strings"

	"desmask/internal/compiler"
	"desmask/internal/kernels"
	"desmask/internal/sim"
)

// mac is the toy keyed checksum as a kernel: its secret is key, its public
// input msg, and emit_output declassifies the tag.
var mac = kernels.Kernel{
	Name:         "mac",
	SecretGlobal: "key",
	PublicGlobal: "msg",
	OutputGlobal: "tag",
	OutputLen:    1,
	Source: `
// A toy keyed checksum: secret key, public message, public-by-design tag.
secure int key[4];
int msg[16];
int tag;
int acc;

int mix(int acc, secure int k, int m) {
	int t;
	t = (acc ^ k) + m;
	t = (t << 3) | ((t >> 29) & 7);
	return t;
}

// The tag is emitted to the outside world anyway.
void emit_output() {
	tag = public(acc);
}

void main() {
	int i;
	acc = 0;
	for (i = 0; i < 16; i = i + 1) {
		acc = mix(acc, key[i & 3], msg[i]);
	}
	emit_output();
}
`,
}

func main() {
	m, err := kernels.BuildSimple(mac, compiler.PolicySelective)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== forward slice ===")
	fmt.Print(m.Res.Report.String())

	// Show a few of the secured instructions the compiler emitted.
	fmt.Println("\n=== secured instructions (excerpt) ===")
	shown := 0
	for _, line := range strings.Split(m.Res.Asm, "\n") {
		if strings.Contains(line, ".s ") && shown < 8 {
			fmt.Println(line)
			shown++
		}
	}

	// Two different secrets: every cycle until the tag is declassified and
	// emitted must be energy-identical. The tag-emission tail legitimately
	// differs — the tag is public output, exactly like the paper's output
	// inverse permutation. The two runs go through one simulation session as
	// a parallel batch.
	msg := make([]uint32, 16)
	for i := range msg {
		msg[i] = uint32(0x1000 + i)
	}
	var jobs []sim.Job
	for _, key := range [][]uint32{
		{0x00000000, 0x11111111, 0x22222222, 0x33333333},
		{0xdeadbeef, 0xcafef00d, 0x8badf00d, 0xfeedface},
	} {
		job, err := m.Job(key, msg, true)
		if err != nil {
			log.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	results, err := m.Runner().RunBatch(jobs, sim.Options{})
	if err != nil {
		log.Fatal(err)
	}
	t1, t2 := results[0].Trace.Totals, results[1].Trace.Totals
	tag1, tag2 := results[0].Mem[0][0], results[1].Mem[0][0]
	fmt.Printf("\ntags: %08x vs %08x (different, as they should be)\n", tag1, tag2)

	// The masked region ends where emit_output starts; everything from
	// there on is the public-output emission.
	end, err := m.MaskedRegionEnd(results[0].Trace)
	if err != nil {
		log.Fatal(err)
	}
	var maskedDiff, tailDiff float64
	for i := range t1 {
		d := math.Abs(t1[i] - t2[i])
		if i < end {
			maskedDiff = max(maskedDiff, d)
		} else {
			tailDiff = max(tailDiff, d)
		}
	}
	fmt.Printf("cycles: %d (masked region: 0..%d)\n", len(t1), end-1)
	fmt.Printf("max energy difference, secret-processing region: %.6f pJ\n", maskedDiff)
	fmt.Printf("max energy difference, public-tag emission:      %.2f pJ (reveals only the tag)\n", tailDiff)
	if maskedDiff < 1e-9 {
		fmt.Println("energy behaviour of the secret is fully masked")
	} else {
		fmt.Println("WARNING: the secret leaks!")
	}
}
