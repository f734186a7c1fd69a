package desprog

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"desmask/internal/compiler"
	"desmask/internal/energy"
	"desmask/internal/isa"
	"desmask/internal/sim"
)

// jobDigest hashes the memory setup of a job: every (Addr, Val) word it
// pokes, in application order (sim.Job.Pokes), then every (Addr, Words)
// read. It returns the digest and the number of pokes.
func jobDigest(h []byte, job sim.Job) ([]byte, int) {
	d := sha256.New()
	d.Write(h)
	var b [8]byte
	n := 0
	job.Pokes(func(w sim.Write) bool {
		binary.LittleEndian.PutUint32(b[:4], w.Addr)
		binary.LittleEndian.PutUint32(b[4:], w.Val)
		d.Write(b[:])
		n++
		return true
	})
	d.Write([]byte("reads"))
	for _, r := range job.Reads {
		binary.LittleEndian.PutUint32(b[:4], r.Addr)
		binary.LittleEndian.PutUint32(b[4:], uint32(r.Words))
		d.Write(b[:])
	}
	return d.Sum(nil), n
}

// TestMaskStreamFixture pins the per-execution memory setup of protected DES
// jobs: one SHA-256 chained over the pokes and reads of EncryptJobSeeded
// for several keys, plaintexts and mask seeds, per (target, protection).
// The digests were recorded once and are never regenerated: a change means
// the mask stream's draw order or the poke layout moved, which silently
// changes every masked t-vector and fixture downstream.
func TestMaskStreamFixture(t *testing.T) {
	want := map[string]string{
		"pisa/boolean-mask":         "c0c234d5c612d2f7a31f693227d791192d30cb715db33e007a3c2aecbb958124",
		"pisa/shuffle":              "04845a01b51b0d4b795173c30f6e675fafc271c66afa6b638c19146d48ce9a0c",
		"pisa/boolean-mask+shuffle": "68fec71cb20c20ea1e2a6ad0bcd7d1fccc81454d03312ef2e385782ed7e67250",
		"rv32/boolean-mask":         "c0c234d5c612d2f7a31f693227d791192d30cb715db33e007a3c2aecbb958124",
		"rv32/shuffle":              "04845a01b51b0d4b795173c30f6e675fafc271c66afa6b638c19146d48ce9a0c",
		"rv32/boolean-mask+shuffle": "68fec71cb20c20ea1e2a6ad0bcd7d1fccc81454d03312ef2e385782ed7e67250",
	}
	protections := []struct {
		name string
		opt  compiler.Options
	}{
		{"boolean-mask", compiler.Options{Policy: compiler.PolicyBooleanMask}},
		{"shuffle", compiler.Options{Policy: compiler.PolicySelective, Shuffle: true}},
		{"boolean-mask+shuffle", compiler.Options{Policy: compiler.PolicyBooleanMask, Shuffle: true}},
	}
	inputs := []struct{ key, plain uint64 }{
		{0x133457799BBCDFF1, 0x0123456789ABCDEF},
		{0, ^uint64(0)},
		{0xdeadbeefcafef00d, 0x8000000000000001},
	}
	seeds := []int64{0, 1, -7, sim.DeriveSeed(0x6d61736b, 3)}
	for _, isaName := range []string{"pisa", "rv32"} {
		target, ok := isa.TargetByName(isaName)
		if !ok {
			t.Fatalf("unknown target %q", isaName)
		}
		for _, p := range protections {
			name := isaName + "/" + p.name
			t.Run(name, func(t *testing.T) {
				opt := p.opt
				opt.Target = target
				m, err := NewFull(opt, energy.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				var h []byte
				for _, in := range inputs {
					for _, seed := range seeds {
						job, err := m.EncryptJobSeeded(in.key, in.plain, seed, 0, false)
						if err != nil {
							t.Fatal(err)
						}
						var n int
						if h, n = jobDigest(h, job); n <= 128 {
							t.Fatalf("%d pokes: no runtime mask material poked", n)
						}
					}
				}
				if got := hex.EncodeToString(h); got != want[name] {
					t.Errorf("mask-stream digest %s, want %s", got, want[name])
				}
			})
		}
	}
}

// jobSink keeps the benchmarked job alive so the call cannot be elided.
var jobSink sim.Job

// BenchmarkEncryptJobSeeded prices the construction of one boolean-mask DES
// job — key shares, scrub word and the mask run naming the 4,096-word pool —
// the per-trace setup of every masked assessment.
func BenchmarkEncryptJobSeeded(b *testing.B) {
	m, err := New(compiler.PolicyBooleanMask)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job, err := m.EncryptJobSeeded(0x133457799BBCDFF1, 0x0123456789ABCDEF, int64(i), 0, false)
		if err != nil {
			b.Fatal(err)
		}
		jobSink = job
	}
}
