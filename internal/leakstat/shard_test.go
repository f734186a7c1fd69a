package leakstat

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"desmask/internal/compiler"
	"desmask/internal/desprog"
	"desmask/internal/energy"
)

// shardTestSource builds a small unprotected DES population for shard tests.
func shardTestSource(t *testing.T) (Source, Config) {
	t.Helper()
	m, err := desprog.NewFull(compiler.Options{Policy: compiler.PolicyNone}, energy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	key, pt := uint64(0x133457799BBCDFF1), uint64(0x0123456789ABCDEF)
	win, err := DESMaskedWindow(m, key, pt, 5000)
	if err != nil {
		t.Fatal(err)
	}
	src := DESKeySource(m, key, pt, 7, 5000)
	cfg := Config{NumTraces: 48, Seed: 7, Shards: 8, Workers: 2, Window: win}
	return src, cfg
}

// TestAssessShardFoldBitIdentical: computing every shard independently via
// AssessShard and folding with FoldReport must reproduce the single-node
// AssessContext verdict bit for bit — the invariant that makes distribution
// a transport problem. Shards are also computed out of order to prove the
// fold, not the execution order, fixes the reduction tree.
func TestAssessShardFoldBitIdentical(t *testing.T) {
	src, cfg := shardTestSource(t)
	ref, err := Assess(src, cfg)
	if err != nil {
		t.Fatal(err)
	}

	shards := NumShards(cfg)
	parts := make([]*ShardAccum, shards)
	order := rand.New(rand.NewSource(1)).Perm(shards)
	for _, s := range order {
		acc, err := AssessShard(context.Background(), src, cfg, s)
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		if acc.Shard != s {
			t.Fatalf("shard %d accumulator labeled %d", s, acc.Shard)
		}
		parts[s] = acc
	}
	got, err := FoldReport(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxAbsT != ref.MaxAbsT || got.MaxTCycle != ref.MaxTCycle ||
		got.CyclesSimulated != ref.CyclesSimulated || got.Leak != ref.Leak {
		t.Fatalf("folded verdict diverged:\nfold %+v\nref  %+v", got, ref)
	}
	for j := range ref.T {
		if math.Float64bits(got.T[j]) != math.Float64bits(ref.T[j]) {
			t.Fatalf("t[%d] differs: %x vs %x", j, math.Float64bits(got.T[j]), math.Float64bits(ref.T[j]))
		}
	}
}

// TestRunReusesOnlyItsOwnAccumulators: the driver reuses the accumulator
// pairs its in-process executor allocated and no others. Shards added
// before Run and shards a custom executor returns keep their bytes, and a
// verdict over reused pairs is the from-scratch verdict bit for bit.
func TestRunReusesOnlyItsOwnAccumulators(t *testing.T) {
	src, cfg := shardTestSource(t)
	cfg.Workers = 1
	ref, err := Assess(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(acc *ShardAccum) string {
		b, err := acc.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	var kept []*ShardAccum
	var want []string
	keep := func(acc *ShardAccum) {
		kept, want = append(kept, acc), append(want, encode(acc))
	}

	f, err := NewFold(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{0, 3} {
		acc, err := AssessShard(context.Background(), src, cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		keep(acc)
		if err := f.Add(acc); err != nil {
			t.Fatal(err)
		}
	}
	got, err := f.Run(context.Background(), src, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameT(t, "driver over two held shards", got, ref)

	f, err = NewFold(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err = f.Run(context.Background(), src, func(ctx context.Context, s int) (*ShardAccum, error) {
		acc, err := AssessShard(ctx, src, cfg, s)
		if err == nil {
			keep(acc)
		}
		return acc, err
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameT(t, "driver over a custom executor", got, ref)
	if got.StateBytes != ref.StateBytes {
		t.Errorf("state %d bytes, want %d", got.StateBytes, ref.StateBytes)
	}
	for i, acc := range kept {
		if encode(acc) != want[i] {
			t.Errorf("caller-owned accumulator of shard %d changed", acc.Shard)
		}
	}
}

// TestFoldResumeAndRejects: a fold rejects a repeated shard, one outside
// the partition, and accumulators of another window length or order,
// leaving itself unchanged. The driver over a fold that already holds a
// shard computes only the rest, calls its hook once per shard with the fold
// as that shard left it, and lands the from-scratch verdict, whose max|t|
// the final prefix carries bit for bit.
func TestFoldResumeAndRejects(t *testing.T) {
	src, cfg := shardTestSource(t)
	ref, err := Assess(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFold(cfg)
	if err != nil {
		t.Fatal(err)
	}
	held, err := AssessShard(context.Background(), src, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Add(held); err != nil {
		t.Fatal(err)
	}
	L := cfg.Window.Len()
	for i, bad := range []*ShardAccum{
		held,
		nil,
		{Shard: NumShards(cfg), Fixed: NewVec(L), Random: NewVec(L)},
		{Shard: 3, Fixed: NewVec(L + 1), Random: NewVec(L + 1)},
		{Shard: 3, Fixed: NewVecOrder(L, 2), Random: NewVecOrder(L, 2)},
	} {
		if err := f.Add(bad); err == nil {
			t.Fatalf("bad shard %d accepted", i)
		}
	}
	if pr := f.Progress(); pr.Held != 1 || pr.Prefix != 0 || pr.MaxAbsT != 0 {
		t.Fatalf("progress after one out-of-order shard: %+v", pr)
	}
	var seen []int
	rep, err := f.Run(context.Background(), src, nil, func(acc *ShardAccum) {
		seen = append(seen, acc.Shard)
		if pr := f.Progress(); pr.Held != 1+len(seen) {
			t.Errorf("hook for shard %d sees %d shards held, want %d", acc.Shard, pr.Held, 1+len(seen))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != NumShards(cfg)-1 {
		t.Fatalf("driver computed shards %v, want all but shard 2", seen)
	}
	for _, s := range seen {
		if s == 2 {
			t.Fatalf("driver recomputed held shard 2: %v", seen)
		}
	}
	if math.Float64bits(rep.MaxAbsT) != math.Float64bits(ref.MaxAbsT) || rep.StateBytes != ref.StateBytes ||
		rep.CyclesSimulated != ref.CyclesSimulated {
		t.Fatalf("resumed verdict %+v, from scratch %+v", rep, ref)
	}
	if pr := f.Progress(); pr.Prefix != pr.Shards || math.Float64bits(pr.MaxAbsT) != math.Float64bits(rep.MaxAbsT) {
		t.Fatalf("final progress %+v, verdict max|t| %v", pr, rep.MaxAbsT)
	}
}

// TestShardAccumRoundTrip: serialization carries the exact float64 bit
// patterns, so a round-tripped shard folds bit-identically.
func TestShardAccumRoundTrip(t *testing.T) {
	src, cfg := shardTestSource(t)
	ref, err := Assess(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shards := NumShards(cfg)
	parts := make([]*ShardAccum, shards)
	for s := 0; s < shards; s++ {
		acc, err := AssessShard(context.Background(), src, cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := acc.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		rt := new(ShardAccum)
		if err := rt.UnmarshalBinary(b); err != nil {
			t.Fatalf("shard %d decode: %v", s, err)
		}
		if rt.Shard != acc.Shard || rt.Cycles != acc.Cycles ||
			rt.Fixed.N() != acc.Fixed.N() || rt.Random.N() != acc.Random.N() {
			t.Fatalf("shard %d header diverged: %+v vs %+v", s, rt, acc)
		}
		for j := range acc.Fixed.Mean {
			if math.Float64bits(rt.Fixed.Mean[j]) != math.Float64bits(acc.Fixed.Mean[j]) ||
				math.Float64bits(rt.Fixed.M2[j]) != math.Float64bits(acc.Fixed.M2[j]) ||
				math.Float64bits(rt.Random.Mean[j]) != math.Float64bits(acc.Random.Mean[j]) ||
				math.Float64bits(rt.Random.M2[j]) != math.Float64bits(acc.Random.M2[j]) {
				t.Fatalf("shard %d sample %d bits diverged after round trip", s, j)
			}
		}
		parts[s] = rt
	}
	got, err := FoldReport(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	for j := range ref.T {
		if math.Float64bits(got.T[j]) != math.Float64bits(ref.T[j]) {
			t.Fatalf("t[%d] differs after serialization round trip", j)
		}
	}
}

// TestShardAccumEncodeAllocs: MarshalBinary sizes its buffer for the whole
// encoding, CRC trailer included, so encoding allocates exactly once, and
// AppendBinary appends the same bytes after whatever the buffer holds.
func TestShardAccumEncodeAllocs(t *testing.T) {
	for _, order := range []int{1, 2} {
		acc := &ShardAccum{Shard: 5, Cycles: 1234, Fixed: NewVecOrder(2500, order), Random: NewVecOrder(2500, order)}
		samples := make([]float64, 2500)
		for i := range samples {
			samples[i] = float64(i%7) + 0.5
		}
		acc.Fixed.AddTrace(samples)
		acc.Random.AddTrace(samples)
		enc, err := acc.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) != cap(enc) {
			t.Errorf("order %d: encoding of %d bytes in a %d-byte buffer", order, len(enc), cap(enc))
		}
		if allocs := testing.AllocsPerRun(10, func() { acc.MarshalBinary() }); allocs != 1 {
			t.Errorf("order %d: MarshalBinary made %v allocations, want 1", order, allocs)
		}
		prefix := []byte("prefix")
		app, err := acc.AppendBinary(append([]byte(nil), prefix...))
		if err != nil {
			t.Fatal(err)
		}
		if string(app[:len(prefix)]) != string(prefix) || string(app[len(prefix):]) != string(enc) {
			t.Errorf("order %d: AppendBinary did not append the MarshalBinary encoding", order)
		}
	}
}

// TestShardAccumCorruption: a flipped byte or a truncated encoding is
// rejected — the durability layer depends on never folding a torn file.
func TestShardAccumCorruption(t *testing.T) {
	acc := &ShardAccum{Shard: 3, Cycles: 99, Fixed: NewVec(4), Random: NewVec(4)}
	acc.Fixed.AddTrace([]float64{1, 2, 3, 4})
	acc.Fixed.AddTrace([]float64{2, 3, 4, 5})
	acc.Random.AddTrace([]float64{5, 6, 7, 8})
	acc.Random.AddTrace([]float64{6, 7, 8, 9})
	b, err := acc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := new(ShardAccum).UnmarshalBinary(b); err != nil {
		t.Fatalf("clean encoding rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"flipped byte", func(d []byte) []byte { d[len(d)/2] ^= 0x40; return d }},
		{"truncated", func(d []byte) []byte { return d[:len(d)-5] }},
		{"empty", func(d []byte) []byte { return nil }},
		{"bad magic", func(d []byte) []byte { d[0] = 'X'; return d }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.mut(append([]byte(nil), b...))
			if err := new(ShardAccum).UnmarshalBinary(d); err == nil {
				t.Fatal("corrupted encoding accepted")
			}
		})
	}
}

// TestShardRangeCovers: the fixed partition tiles the population exactly.
func TestShardRangeCovers(t *testing.T) {
	for _, n := range []int{4, 31, 32, 33, 100, 1000} {
		for _, shards := range []int{1, 3, 8, 32} {
			if shards > n {
				continue
			}
			next := 0
			for s := 0; s < shards; s++ {
				lo, hi := ShardRange(s, shards, n)
				if lo != next || hi < lo {
					t.Fatalf("n=%d shards=%d: shard %d range [%d,%d), want lo=%d", n, shards, s, lo, hi, next)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d shards=%d: partition ends at %d", n, shards, next)
			}
		}
	}
}

// TestWindowContextCancelled: a dead context skips the window-probe
// simulation instead of burning a worker on it.
func TestWindowContextCancelled(t *testing.T) {
	m, err := desprog.NewFull(compiler.Options{Policy: compiler.PolicyNone}, energy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := desRegion(ctx, m, 1, 2, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled window probe returned %v, want context.Canceled", err)
	}
}
