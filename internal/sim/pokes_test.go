package sim_test

// Mask-run pokes: a job names its fresh-mask pool by mask-stream state
// (sim.MaskRun) instead of carrying the pool's words. These tests hold the
// poke routine to the memory a fully expanded job writes, and the gang's
// mirror grouping to the run.

import (
	"reflect"
	"slices"
	"testing"

	"desmask/internal/compiler"
	"desmask/internal/desprog"
	"desmask/internal/energy"
	"desmask/internal/isa"
	"desmask/internal/kernels"
	"desmask/internal/mem"
	"desmask/internal/sim"
)

// splitmix is the mask stream, written out independently of sim.MaskStream.
type splitmix struct{ s uint64 }

func (r *splitmix) next64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *splitmix) next32() uint32 { return uint32(r.next64() >> 32) }

// expandedJob is harness.Layout.Job as it stood when a job carried every
// word it pokes: the pokes of one execution of res with inputs[i] set to
// vals[i], mask material drawn from seed's stream in the one fixed order —
// input shares, scrub word, the whole pool, the shuffle permutation.
func expandedJob(t *testing.T, res *compiler.Result, inputs []string, seed int64, vals ...[]uint32) []sim.Write {
	t.Helper()
	sym := func(name string) uint32 {
		addr, ok := res.Program.Symbols[compiler.GlobalLabel(name)]
		if !ok {
			t.Fatalf("no global %q", name)
		}
		return addr
	}
	var (
		masked          []string
		poolWords, shuf int
	)
	if mrt := res.Mask; mrt != nil {
		masked, poolWords, shuf = mrt.MaskedGlobals, mrt.PoolWords, mrt.ShuffleLen
	}
	rng := &splitmix{s: uint64(seed)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03}
	var w []sim.Write
	for i, g := range inputs {
		addr := sym(g)
		for j, v := range vals[i] {
			at := addr + uint32(4*j)
			if !slices.Contains(masked, g) {
				w = append(w, sim.Write{Addr: at, Val: v})
				continue
			}
			m := rng.next32()
			w = append(w, sim.Write{Addr: at, Val: v ^ m}, sim.Write{Addr: sym(compiler.MaskShadow(g)) + uint32(4*j), Val: m})
		}
	}
	if poolWords > 0 {
		w = append(w, sim.Write{Addr: sym(compiler.MaskScrubSym), Val: rng.next32()})
		for j := 0; j < poolWords; j++ {
			w = append(w, sim.Write{Addr: sym(compiler.MaskPoolSym) + uint32(4*j), Val: rng.next32()})
		}
	}
	if shuf > 0 {
		perm := make([]uint32, shuf)
		for j := range perm {
			perm[j] = uint32(j)
		}
		for j := len(perm) - 1; j > 0; j-- {
			k := int(rng.next64() % uint64(j+1))
			perm[j], perm[k] = perm[k], perm[j]
		}
		for j, v := range perm {
			w = append(w, sim.Write{Addr: sym(compiler.ShuffleSym) + uint32(4*j), Val: v})
		}
	}
	return w
}

// pokes collects a job's pokes in application order.
func pokes(job *sim.Job) []sim.Write {
	var out []sim.Write
	job.Pokes(func(w sim.Write) bool {
		out = append(out, w)
		return true
	})
	return out
}

// bits spreads v MSB first over 64 words, as desprog pokes a DES key or
// plaintext.
func bits(v uint64) []uint32 {
	out := make([]uint32, 64)
	for i := range out {
		out[i] = uint32(v >> (63 - i) & 1)
	}
	return out
}

// TestPokesMatchExpandedJobs: poking a job leaves a lane's memory exactly as
// poking the fully expanded job does — every word, page and write count —
// for DES and every kernel under boolean masking, shuffling and both, on
// both targets, at several mask seeds; the job's Pokes are the expanded
// writes in order, and the pool is not carried as writes.
func TestPokesMatchExpandedJobs(t *testing.T) {
	protections := []struct {
		name string
		opt  compiler.Options
	}{
		{"boolean-mask", compiler.Options{Policy: compiler.PolicyBooleanMask}},
		{"shuffle", compiler.Options{Policy: compiler.PolicySelective, Shuffle: true}},
		{"boolean-mask+shuffle", compiler.Options{Policy: compiler.PolicyBooleanMask, Shuffle: true}},
	}
	seeds := []int64{0, 1, -7, sim.DeriveSeed(0x6d61736b, 3)}
	for _, isaName := range []string{"pisa", "rv32"} {
		target, ok := isa.TargetByName(isaName)
		if !ok {
			t.Fatalf("unknown target %q", isaName)
		}
		for _, p := range protections {
			opt := p.opt
			opt.Target = target
			for _, workload := range []string{"des", "tea", "aes128", "sha1"} {
				t.Run(isaName+"/"+p.name+"/"+workload, func(t *testing.T) {
					var (
						res    *compiler.Result
						inputs []string
						job    func(seed int64) (sim.Job, []sim.Write)
					)
					if workload == "des" {
						m, err := desprog.NewFull(opt, energy.DefaultConfig())
						if err != nil {
							t.Fatal(err)
						}
						res, inputs = m.Res, []string{"key", "plaintext"}
						job = func(seed int64) (sim.Job, []sim.Write) {
							key, pt := uint64(0x133457799BBCDFF1)^uint64(seed), uint64(0x0123456789ABCDEF)
							j, err := m.EncryptJobSeeded(key, pt, seed, 0, false)
							if err != nil {
								t.Fatal(err)
							}
							return j, expandedJob(t, res, inputs, seed, bits(key), bits(pt))
						}
					} else {
						k, _ := kernels.ByName(workload)
						m, err := kernels.Build(k, opt, energy.DefaultConfig())
						if err != nil {
							t.Fatal(err)
						}
						secret, public, _ := kernels.TVLAInputs(k)
						res, inputs = m.Res, []string{k.SecretGlobal, k.PublicGlobal}
						job = func(seed int64) (sim.Job, []sim.Write) {
							j, err := m.JobSeeded(secret, public, seed, false)
							if err != nil {
								t.Fatal(err)
							}
							return j, expandedJob(t, res, inputs, seed, secret, public)
						}
					}
					for _, seed := range seeds {
						j, want := job(seed)
						if got := pokes(&j); !slices.Equal(got, want) {
							t.Fatalf("seed %d: %d pokes differ from the %d expanded writes", seed, len(got), len(want))
						}
						if mrt := res.Mask; mrt != nil && mrt.PoolWords > 0 &&
							(j.Pool.Words != mrt.PoolWords || len(j.Writes) != len(want)-mrt.PoolWords) {
							t.Fatalf("seed %d: pool run of %d words beside %d writes, want the %d-word pool as the run",
								seed, j.Pool.Words, len(j.Writes), mrt.PoolWords)
						}
						lane, ref := mem.New(), mem.New()
						if err := sim.Poke(&j, lane); err != nil {
							t.Fatal(err)
						}
						for _, w := range want {
							if err := ref.StoreWord(w.Addr, w.Val); err != nil {
								t.Fatal(err)
							}
						}
						if !reflect.DeepEqual(lane, ref) {
							t.Fatalf("seed %d: lane memory differs from the expanded job's", seed)
						}
					}
				})
			}
		}
	}
}

// TestPokeRejectsMisplacedRun: a mask run placed past the job's writes is
// a job-setup error, not a panic.
func TestPokeRejectsMisplacedRun(t *testing.T) {
	for _, at := range []int{-1, 2} {
		job := sim.Job{Writes: []sim.Write{{Addr: 0x1000, Val: 1}}, Pool: sim.MaskRun{Addr: 0x2000, Words: 4, At: at}}
		if err := sim.Poke(&job, mem.New()); err == nil {
			t.Errorf("run at %d of 1 write: no error", at)
		}
	}
}

// TestGangMirrorsMaskRun: jobs with equal Writes but different mask-stream
// state poke different pools and must not share a gang lane; identical
// jobs still do. A gang of both kinds reads back each job's own pool, as
// one-lane runs do.
func TestGangMirrorsMaskRun(t *testing.T) {
	m, err := desprog.NewFull(compiler.Options{Policy: compiler.PolicyBooleanMask}, energy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.EncryptJobSeeded(0x133457799BBCDFF1, 0x0123456789ABCDEF, 5, 3000, false)
	if err != nil {
		t.Fatal(err)
	}
	a.Reads = append(a.Reads, sim.Read{Addr: a.Pool.Addr, Words: a.Pool.Words})
	same := a
	same.Writes = slices.Clone(a.Writes)
	other := same
	other.Pool.State++
	if !sim.Mirrors(&a, &same) {
		t.Error("identical jobs do not mirror")
	}
	if sim.Mirrors(&a, &other) {
		t.Error("jobs with different mask-stream state mirror")
	}

	jobs := []sim.Job{a, other, same, other}
	got, err := m.Runner().RunBatch(jobs, sim.Options{Workers: 1, GangWidth: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, job := range jobs {
		requireSameResult(t, "gang lane", got[i], m.Runner().Run(job))
	}
	if slices.Equal(got[0].Mem[2], got[1].Mem[2]) {
		t.Fatal("different stream states read back the same pool")
	}
}
