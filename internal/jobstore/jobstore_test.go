package jobstore

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"desmask/internal/leakstat"
)

func testAccum(shard int) *leakstat.ShardAccum {
	acc := &leakstat.ShardAccum{Shard: shard, Cycles: uint64(1000 + shard), Fixed: leakstat.NewVec(3), Random: leakstat.NewVec(3)}
	acc.Fixed.AddTrace([]float64{1.5, 2.25, 3.125})
	acc.Fixed.AddTrace([]float64{0.5, 1.25, 2.5})
	acc.Random.AddTrace([]float64{4, 5, 6})
	acc.Random.AddTrace([]float64{7, 8, 9})
	return acc
}

// TestCreateIdempotent: the same id converges on one record; the second
// create reports the existing job.
func TestCreateIdempotent(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	req := json.RawMessage(`{"kernel":"des","traces":64}`)
	id := JobID(req)
	rec, existing, err := st.Create(id, req, 8)
	if err != nil || existing {
		t.Fatalf("first create: existing=%v err=%v", existing, err)
	}
	if rec.State != StatePending || rec.Shards != 8 || rec.ID != id {
		t.Fatalf("fresh record %+v", rec)
	}
	rec2, existing, err := st.Create(id, req, 8)
	if err != nil || !existing {
		t.Fatalf("second create: existing=%v err=%v", existing, err)
	}
	if rec2.ID != id || rec2.Created != rec.Created {
		t.Fatalf("idempotent create diverged: %+v vs %+v", rec2, rec)
	}
}

// TestLifecycleAndDurability: state transitions persist across a store
// reopen — the restart path after a kill.
func TestLifecycleAndDurability(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	req := json.RawMessage(`{"kernel":"des"}`)
	id := JobID(req)
	if _, _, err := st.Create(id, req, 4); err != nil {
		t.Fatal(err)
	}
	if err := st.SetRunning(id); err != nil {
		t.Fatal(err)
	}
	if err := st.PutShard(id, testAccum(0)); err != nil {
		t.Fatal(err)
	}
	if err := st.PutShard(id, testAccum(2)); err != nil {
		t.Fatal(err)
	}

	// "Kill": drop the handle, reopen from disk.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := st2.Incomplete()
	if err != nil {
		t.Fatal(err)
	}
	if len(inc) != 1 || inc[0].ID != id || inc[0].State != StateRunning {
		t.Fatalf("incomplete after reopen: %+v", inc)
	}
	shards, err := st2.Shards(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 || shards[0] == nil || shards[2] == nil {
		t.Fatalf("shards after reopen: %v", shards)
	}
	if shards[2].Cycles != 1002 || shards[2].Fixed.N() != 2 {
		t.Fatalf("shard 2 content: %+v", shards[2])
	}

	verdict := json.RawMessage(`{"leak":true}`)
	if err := st2.Complete(id, verdict); err != nil {
		t.Fatal(err)
	}
	leakOf := func(raw json.RawMessage) bool {
		var v struct {
			Leak bool `json:"leak"`
		}
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("verdict %q: %v", raw, err)
		}
		return v.Leak
	}
	rec, err := st2.Get(id)
	if err != nil || rec.State != StateDone || !leakOf(rec.Verdict) {
		t.Fatalf("completed record %+v err=%v", rec, err)
	}
	// Completing again is a no-op, and the job leaves the recovery set.
	if err := st2.Complete(id, json.RawMessage(`{"leak":false}`)); err != nil {
		t.Fatal(err)
	}
	rec, _ = st2.Get(id)
	if !leakOf(rec.Verdict) {
		t.Fatalf("second Complete overwrote the verdict: %s", rec.Verdict)
	}
	if inc, _ := st2.Incomplete(); len(inc) != 0 {
		t.Fatalf("done job still in recovery set: %+v", inc)
	}
}

// TestPutShardBytes: PutShard encodes through a recycled buffer; every file
// it writes holds exactly the accumulator's MarshalBinary encoding, also
// when a larger shard's encoding was in the buffer before.
func TestPutShardBytes(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	req := json.RawMessage(`{}`)
	id := JobID(req)
	if _, _, err := st.Create(id, req, 2); err != nil {
		t.Fatal(err)
	}
	large := &leakstat.ShardAccum{Shard: 0, Cycles: 7, Fixed: leakstat.NewVecOrder(64, 2), Random: leakstat.NewVecOrder(64, 2)}
	large.Fixed.AddTrace(make([]float64, 64))
	large.Random.AddTrace(make([]float64, 64))
	for _, acc := range []*leakstat.ShardAccum{large, testAccum(1)} {
		if err := st.PutShard(id, acc); err != nil {
			t.Fatal(err)
		}
		want, err := acc.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, id, shardFile(acc.Shard)))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("shard %d: file holds %d bytes that differ from its %d-byte encoding", acc.Shard, len(got), len(want))
		}
	}
}

// TestCorruptShardSkipped: a torn shard file reads as "not computed".
func TestCorruptShardSkipped(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	req := json.RawMessage(`{}`)
	id := JobID(req)
	if _, _, err := st.Create(id, req, 4); err != nil {
		t.Fatal(err)
	}
	if err := st.PutShard(id, testAccum(1)); err != nil {
		t.Fatal(err)
	}
	// Tear shard 1's file and plant a garbage shard 3.
	p1 := filepath.Join(dir, id, "shard-0001.acc")
	data, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p1, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, id, "shard-0003.acc"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	shards, err := st.Shards(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 0 {
		t.Fatalf("corrupt shards surfaced: %v", shards)
	}
	// A clean rewrite recovers.
	if err := st.PutShard(id, testAccum(1)); err != nil {
		t.Fatal(err)
	}
	if shards, _ := st.Shards(id); len(shards) != 1 || shards[1] == nil {
		t.Fatalf("rewritten shard not visible: %v", shards)
	}
}

// TestFailAndNotFound: failure recording and missing-id errors.
func TestFailAndNotFound(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing: %v", err)
	}
	if err := st.SetRunning("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("SetRunning missing: %v", err)
	}
	req := json.RawMessage(`{"x":1}`)
	id := JobID(req)
	if _, _, err := st.Create(id, req, 2); err != nil {
		t.Fatal(err)
	}
	if err := st.Fail(id, "boom"); err != nil {
		t.Fatal(err)
	}
	rec, err := st.Get(id)
	if err != nil || rec.State != StateFailed || rec.Error != "boom" {
		t.Fatalf("failed record %+v err=%v", rec, err)
	}
}

// TestJobIDStable: the idempotency key is a pure function of the bytes.
func TestJobIDStable(t *testing.T) {
	a := JobID([]byte(`{"kernel":"des","seed":7}`))
	b := JobID([]byte(`{"kernel":"des","seed":7}`))
	c := JobID([]byte(`{"kernel":"des","seed":8}`))
	if a != b {
		t.Fatal("identical requests hash differently")
	}
	if a == c {
		t.Fatal("distinct seeds collide")
	}
}
