package kernels

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

// TestMaskStreamFixture pins the per-execution memory setup of masked kernel
// jobs: one SHA-256 chained over the pokes and reads of JobSeeded for two
// secrets and several mask seeds, per (target, kernel). The digests were
// recorded once and are never regenerated (see the DES twin in desprog).
func TestMaskStreamFixture(t *testing.T) {
	want := map[string]string{
		"pisa/tea":    "45622185b2256c2948c002e08495d4dac939956446798a2a9fd89b126ab94cae",
		"pisa/aes128": "62d69b4b7a58ecb7334d58a84f440a584eab0ceaed005d6563fe6c6ead75df61",
		"rv32/tea":    "45622185b2256c2948c002e08495d4dac939956446798a2a9fd89b126ab94cae",
		"rv32/aes128": "62d69b4b7a58ecb7334d58a84f440a584eab0ceaed005d6563fe6c6ead75df61",
	}
	seeds := []int64{0, 1, -7, sim.DeriveSeed(0x6d61736b, 3)}
	for _, isaName := range []string{"pisa", "rv32"} {
		target, ok := isa.TargetByName(isaName)
		if !ok {
			t.Fatalf("unknown target %q", isaName)
		}
		for _, k := range []Kernel{TEA(), AES128()} {
			name := isaName + "/" + k.Name
			t.Run(name, func(t *testing.T) {
				m, err := Build(k, compiler.Options{Policy: compiler.PolicyBooleanMask, Target: target}, energy.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				secret, public, wordMask := TVLAInputs(k)
				other := make([]uint32, len(secret))
				for i := range other {
					other[i] = (0x9E3779B9 * uint32(i+7)) & wordMask
				}
				var h []byte
				for _, s := range [][]uint32{secret, other} {
					for _, seed := range seeds {
						job, err := m.JobSeeded(s, public, seed, false)
						if err != nil {
							t.Fatal(err)
						}
						var n int
						if h, n = jobDigest(h, job); n <= len(s)+len(public) {
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
