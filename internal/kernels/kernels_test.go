package kernels

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"desmask/internal/compiler"
	"desmask/internal/harness"
	"desmask/internal/trace"
)

func TestTEAReferenceKnownVector(t *testing.T) {
	// All-zero key and block, the classic TEA smoke vector.
	got := TEAReference([4]uint32{}, [2]uint32{})
	if got[0] != 0x41ea3a0a || got[1] != 0x94baa940 {
		t.Errorf("TEA(0,0) = %08x %08x, want 41ea3a0a 94baa940", got[0], got[1])
	}
}

func TestTEASimulatedMatchesReference(t *testing.T) {
	m, err := BuildSimple(TEA(), compiler.PolicyNone)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4; i++ {
		key := [4]uint32{rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32()}
		v := [2]uint32{rng.Uint32(), rng.Uint32()}
		out, stats, err := m.Run(key[:], v[:])
		if err != nil {
			t.Fatal(err)
		}
		want := TEAReference(key, v)
		if out[0] != want[0] || out[1] != want[1] {
			t.Fatalf("TEA sim = %08x %08x, want %08x %08x", out[0], out[1], want[0], want[1])
		}
		if stats.Cycles == 0 {
			t.Fatal("no cycles simulated")
		}
	}
}

func TestAESSimulatedMatchesReference(t *testing.T) {
	m, err := BuildSimple(AES128(), compiler.PolicyNone)
	if err != nil {
		t.Fatal(err)
	}
	// FIPS-197 Appendix C.1.
	key := make([]uint32, 16)
	for i := 0; i < 16; i++ {
		key[i] = uint32(i)
	}
	pt := []uint32{0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff}
	out, stats, err := m.Run(key, pt)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("AES sim byte %d = %#02x, want %#02x", i, out[i], want[i])
		}
	}
	t.Logf("AES-128 on the simulator: %d cycles, %.1f µJ", stats.Cycles, stats.Energy.Total/1e6)
}

func TestAESSimulatedMatchesReferenceRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m, err := BuildSimple(AES128(), compiler.PolicyNone)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 3; trial++ {
		key := make([]uint32, 16)
		pt := make([]uint32, 16)
		for i := range key {
			key[i] = uint32(rng.Intn(256))
			pt[i] = uint32(rng.Intn(256))
		}
		out, _, err := m.Run(key, pt)
		if err != nil {
			t.Fatal(err)
		}
		want := AESReference(key, pt)
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("trial %d byte %d = %#02x, want %#02x", trial, i, out[i], want[i])
			}
		}
	}
}

// maskedFlat checks the selective-masking invariant for a kernel: two
// different secrets produce identical traces until output emission.
func maskedFlat(t *testing.T, k Kernel, s1, s2, pub []uint32) {
	t.Helper()
	m, err := BuildSimple(k, compiler.PolicySelective)
	if err != nil {
		t.Fatal(err)
	}
	_, t1, err := m.Trace(s1, pub)
	if err != nil {
		t.Fatal(err)
	}
	_, t2, err := m.Trace(s2, pub)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Len() != t2.Len() {
		t.Fatalf("%s: cycle counts differ: %d vs %d", k.Name, t1.Len(), t2.Len())
	}
	end, err := m.MaskedRegionEnd(t1)
	if err != nil {
		t.Fatal(err)
	}
	if end < t1.Len()/2 {
		t.Fatalf("%s: masked region suspiciously short (%d of %d)", k.Name, end, t1.Len())
	}
	for i := 0; i < end; i++ {
		if math.Abs(t1.Totals[i]-t2.Totals[i]) > 1e-9 {
			t.Fatalf("%s: cycle %d leaks under selective masking", k.Name, i)
		}
	}
}

// leaky checks that the unprotected kernel leaks.
func leaky(t *testing.T, k Kernel, s1, s2, pub []uint32) {
	t.Helper()
	m, err := BuildSimple(k, compiler.PolicyNone)
	if err != nil {
		t.Fatal(err)
	}
	_, t1, err := m.Trace(s1, pub)
	if err != nil {
		t.Fatal(err)
	}
	_, t2, err := m.Trace(s2, pub)
	if err != nil {
		t.Fatal(err)
	}
	d, err := trace.Diff(t1.Totals, t2.Totals)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Summarize(d).MaxAbs < 1e-9 {
		t.Errorf("%s: unprotected kernel does not leak", k.Name)
	}
}

func TestTEAMaskingInvariants(t *testing.T) {
	s1 := []uint32{1, 2, 3, 4}
	s2 := []uint32{0xdeadbeef, 0xcafef00d, 0x12345678, 0x9abcdef0}
	pub := []uint32{0x11111111, 0x22222222}
	maskedFlat(t, TEA(), s1, s2, pub)
	leaky(t, TEA(), s1, s2, pub)
}

func TestAESMaskingInvariants(t *testing.T) {
	s1 := make([]uint32, 16)
	s2 := make([]uint32, 16)
	pub := make([]uint32, 16)
	for i := 0; i < 16; i++ {
		s1[i] = uint32(i)
		s2[i] = uint32(255 - i)
		pub[i] = uint32(i * 7 % 256)
	}
	maskedFlat(t, AES128(), s1, s2, pub)
	leaky(t, AES128(), s1, s2, pub)
}

// kernelInputs returns suitably sized deterministic inputs for a kernel.
func kernelInputs(k Kernel) (secret, public []uint32) {
	secretLen, publicLen := 4, 2 // TEA
	if k.Name == "aes128" {
		secretLen, publicLen = 16, 16
	}
	secret = make([]uint32, secretLen)
	public = make([]uint32, publicLen)
	for i := range secret {
		secret[i] = uint32(i + 1)
	}
	for i := range public {
		public[i] = uint32(i * 3)
	}
	return secret, public
}

func TestKernelEnergyOrdering(t *testing.T) {
	for _, k := range []Kernel{TEA(), AES128()} {
		secret, public := kernelInputs(k)
		var prev float64
		for i, pol := range []compiler.Policy{
			compiler.PolicyNone, compiler.PolicySelective, compiler.PolicyAllSecure,
		} {
			m, err := BuildSimple(k, pol)
			if err != nil {
				t.Fatal(err)
			}
			_, stats, err := m.Run(secret, public)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 && stats.Energy.Total <= prev {
				t.Errorf("%s %v: energy %.0f not above previous %.0f", k.Name, pol, stats.Energy.Total, prev)
			}
			prev = stats.Energy.Total
		}
	}
}

func TestRunErrors(t *testing.T) {
	bad := Kernel{Name: "bad", Source: "void main() { }", SecretGlobal: "nope", PublicGlobal: "nope", OutputGlobal: "nope"}
	m, err := BuildSimple(bad, compiler.PolicyNone)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Run([]uint32{1}, nil); err == nil {
		t.Error("missing globals should fail")
	}
	if _, err := BuildSimple(Kernel{Name: "syntax", Source: "int"}, compiler.PolicyNone); err == nil {
		t.Error("bad source should fail to build")
	}
}

// sha1ABCBlock returns the standard IV and the padded "abc" block.
func sha1ABCBlock() ([5]uint32, [16]uint32) {
	iv := [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	var block [16]uint32
	block[0] = 0x61626380 // "abc" + 0x80 padding
	block[15] = 24        // message length in bits
	return iv, block
}

func TestSHA1ReferenceKnownVector(t *testing.T) {
	iv, block := sha1ABCBlock()
	got := SHA1Reference(iv, block)
	want := [5]uint32{0xA9993E36, 0x4706816A, 0xBA3E2571, 0x7850C26C, 0x9CD0D89D}
	if got != want {
		t.Errorf("SHA1(abc) = %08x, want %08x", got, want)
	}
}

func TestSHA1SimulatedMatchesReference(t *testing.T) {
	m, err := BuildSimple(SHA1(), compiler.PolicyNone)
	if err != nil {
		t.Fatal(err)
	}
	iv, block := sha1ABCBlock()
	out, stats, err := m.Run(iv[:], block[:])
	if err != nil {
		t.Fatal(err)
	}
	want := SHA1Reference(iv, block)
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("digest[%d] = %08x, want %08x", i, out[i], want[i])
		}
	}
	t.Logf("SHA-1 compression on the simulator: %d cycles, %.2f µJ", stats.Cycles, stats.Energy.Total/1e6)

	// Random states/blocks too.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 3; trial++ {
		var st [5]uint32
		var bl [16]uint32
		for i := range st {
			st[i] = rng.Uint32()
		}
		for i := range bl {
			bl[i] = rng.Uint32()
		}
		out, _, err := m.Run(st[:], bl[:])
		if err != nil {
			t.Fatal(err)
		}
		want := SHA1Reference(st, bl)
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("trial %d digest[%d] = %08x, want %08x", trial, i, out[i], want[i])
			}
		}
	}
}

func TestSHA1MaskingInvariants(t *testing.T) {
	s1 := []uint32{1, 2, 3, 4, 5}
	s2 := []uint32{0xdeadbeef, 0xcafef00d, 0x8badf00d, 0xfeedface, 0x0ddba11}
	_, block := sha1ABCBlock()
	maskedFlat(t, SHA1(), s1, s2, block[:])
	leaky(t, SHA1(), s1, s2, block[:])
}

func TestSHA1NoTimingWarnings(t *testing.T) {
	m, err := BuildSimple(SHA1(), compiler.PolicySelective)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Res.Report.TimingWarnings) != 0 {
		t.Errorf("SHA-1 kernel has timing warnings: %v", m.Res.Report.TimingWarnings)
	}
}

// TestJobSeededRejectsOverrun: an input longer than its global, or an
// output length past the output global, is refused before any word is
// poked — poking it would silently overwrite the neighbouring globals.
func TestJobSeededRejectsOverrun(t *testing.T) {
	src := `
secure int k[2];
int p[2];
int out[2];
int s;

void emit_output() {
	out[0] = public(k[0] ^ p[0]);
	out[1] = public(k[1] ^ p[1]);
}

void main() { emit_output(); }
`
	k := Kernel{Name: "overrun", Source: src, SecretGlobal: "k", PublicGlobal: "p", OutputGlobal: "out", OutputLen: 2}
	for _, policy := range []compiler.Policy{compiler.PolicyNone, compiler.PolicyBooleanMask} {
		m, err := BuildSimple(k, policy)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.JobSeeded([]uint32{1}, []uint32{2, 3}, 1, false); err != nil {
			t.Fatalf("%v: in-bounds inputs refused: %v", policy, err)
		}
		for _, tc := range []struct {
			field          string
			secret, public []uint32
		}{
			{"secret", make([]uint32, 6), []uint32{1, 2}},
			{"public", []uint32{1, 2}, make([]uint32, 3)},
		} {
			_, err := m.JobSeeded(tc.secret, tc.public, 1, false)
			var le *harness.LengthError
			if !errors.As(err, &le) || le.Field != tc.field || le.Words != 2 {
				t.Errorf("%v: %s overrun: got %v, want a LengthError on %s (2 words)", policy, tc.field, err, tc.field)
			}
		}
	}
	for _, tc := range []struct {
		out   string
		len   int
		words int
	}{{"out", 3, 2}, {"s", 2, 1}} {
		bad := k
		bad.OutputGlobal, bad.OutputLen = tc.out, tc.len
		m, err := BuildSimple(bad, compiler.PolicyNone)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = m.Run([]uint32{1, 2}, []uint32{3, 4})
		var le *harness.LengthError
		if !errors.As(err, &le) || le.Field != "output_len" || le.Words != tc.words {
			t.Errorf("output_len %d over %s: got %v, want a LengthError on output_len (%d words)", tc.len, tc.out, err, tc.words)
		}
	}
}
