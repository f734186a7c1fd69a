package harness

import (
	"testing"

	"desmask/internal/compiler"
	"desmask/internal/sim"
)

const src = `
secure int k[2];
int p[3];
int out[2];

void emit_output() {
	out[0] = public(k[0] ^ p[0]);
	out[1] = public(k[1] ^ p[2]);
}

int t[4];

void main() {
	int i;
	shuffle for (i = 0; i < 4; i = i + 1) { t[i] = p[i & 1]; }
	emit_output();
}
`

func layout(t *testing.T, opt compiler.Options) *Layout {
	t.Helper()
	res, err := compiler.CompileWithOptions(src, opt)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Resolve(res, []Port{{"secret", "k"}, {"public", "p"}}, Port{"output_len", "out"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestJobShape pins the poke layout of one masked job: the secret as
// interleaved (share, mask) pairs, the public words as-is, then the scrub
// word and the whole pool, with the pool cursor read back after the output.
// The pool is the job's mask run, not carried as writes.
func TestJobShape(t *testing.T) {
	l := layout(t, compiler.Options{Policy: compiler.PolicyBooleanMask})
	job, err := l.Job(5, []uint32{7, 9}, []uint32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*2 + 3 + 1; len(job.Writes) != want || cap(job.Writes) != want {
		t.Fatalf("%d writes (cap %d), want exactly %d", len(job.Writes), cap(job.Writes), want)
	}
	var w []sim.Write
	job.Pokes(func(p sim.Write) bool {
		w = append(w, p)
		return true
	})
	if want := 2*2 + 3 + 1 + compiler.MaskPoolWords; len(w) != want {
		t.Fatalf("%d pokes, want %d", len(w), want)
	}
	if w[0].Val^w[1].Val != 7 || w[2].Val^w[3].Val != 9 || w[1].Addr != w[3].Addr-4 {
		t.Errorf("secret shares %+v do not recombine to 7, 9", w[:4])
	}
	for i, v := range []uint32{1, 2, 3} {
		if w[4+i].Val != v {
			t.Errorf("public word %d = %d, want %d", i, w[4+i].Val, v)
		}
	}
	if w[7].Addr != l.scrub {
		t.Errorf("poke 7 at %#x, want the scrub word at %#x", w[7].Addr, l.scrub)
	}
	for j, p := range w[8:] {
		if p.Addr != l.pool+uint32(4*j) {
			t.Fatalf("pool poke %d at %#x, want %#x", j, p.Addr, l.pool+uint32(4*j))
		}
	}
	if len(job.Reads) != 2 || job.Reads[0].Words != 2 || job.Reads[1].Words != 1 {
		t.Errorf("reads %+v, want the output then the pool cursor", job.Reads)
	}
}

// TestShufflePermutation: a shuffled program's last writes are a fresh
// permutation of 0..n-1 per seed, written over the permutation global.
func TestShufflePermutation(t *testing.T) {
	l := layout(t, compiler.Options{Policy: compiler.PolicySelective, Shuffle: true})
	if l.shufN != 4 {
		t.Fatalf("permutation of %d entries, want 4", l.shufN)
	}
	orders := map[[4]uint32]bool{}
	for seed := int64(0); seed < 16; seed++ {
		job, err := l.Job(seed, []uint32{1, 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var order [4]uint32
		seen := [4]bool{}
		for i, w := range job.Writes[len(job.Writes)-4:] {
			if w.Addr != l.shuf+uint32(4*i) || w.Val >= 4 || seen[w.Val] {
				t.Fatalf("seed %d: not a permutation of the shuffle global: %+v", seed, job.Writes)
			}
			seen[w.Val], order[i] = true, w.Val
		}
		orders[order] = true
	}
	if len(orders) < 4 {
		t.Errorf("16 seeds drew only %d distinct orders", len(orders))
	}
}

// TestReadsNotAliased: a caller editing one job's Reads must not change
// another job's.
func TestReadsNotAliased(t *testing.T) {
	l := layout(t, compiler.Options{Policy: compiler.PolicyBooleanMask})
	a, _ := l.Job(1, nil, nil)
	a.Reads[0].Words = 99
	b, _ := l.Job(2, nil, nil)
	if len(b.Reads) != 2 || b.Reads[0].Words != 2 {
		t.Fatalf("a caller's append leaked into the shared reads: %+v", b.Reads)
	}
}
