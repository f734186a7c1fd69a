// Package jobstore persists leakd assessment jobs so that a kill — even an
// uncatchable SIGKILL — loses no accepted work. It is a plain-file store
// (the repository carries no database dependency) built on the two POSIX
// primitives that survive crashes: write-to-temp + rename for atomic
// visibility, and per-record files so no write ever touches more than one
// job's state.
//
// Layout under the store directory, one subdirectory per job:
//
//	<dir>/<id>/job.json        job record: request, state, verdict
//	<dir>/<id>/shard-0042.acc  one completed shard's accumulator pair
//
// The id is the job's idempotency key — a SHA-256 over the canonical
// request encoding plus the seed — so re-submitting an identical request
// converges on the same record instead of duplicating work, and a verdict is
// computed exactly once per distinct request: replays of a completed job
// return the stored verdict.
//
// Shard accumulator files are the unit of resumable progress: a crash
// mid-assessment keeps every completed shard (leakstat.ShardAccum encoding,
// CRC-verified on load, so a torn file degrades to "recompute this shard"),
// and a restart re-runs only the missing shards. Because shard execution is
// deterministic and the fold is in shard order, the resumed verdict is
// bit-identical to an uninterrupted run.
package jobstore

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"desmask/internal/leakstat"
)

// State is a job's lifecycle position.
type State string

const (
	// StatePending: persisted, not yet executing (or waiting to resume).
	StatePending State = "pending"
	// StateRunning: an executor owns the job. After a crash a running job
	// is indistinguishable from a pending one and is resumed the same way.
	StateRunning State = "running"
	// StateDone: the verdict is recorded; the job is immutable.
	StateDone State = "done"
	// StateFailed: the job ended with a non-retryable error.
	StateFailed State = "failed"
)

// ErrNotFound reports a job id with no record.
var ErrNotFound = errors.New("jobstore: job not found")

// Record is one persisted job.
type Record struct {
	// ID is the idempotency key (JobID of the request bytes).
	ID string `json:"id"`
	// Request is the original request body, replayed on resume.
	Request json.RawMessage `json:"request"`
	// State is the lifecycle position.
	State State `json:"state"`
	// Shards is the normalized shard count of the job's partition.
	Shards int `json:"shards"`
	// Created and Updated are wall-clock bookkeeping.
	Created time.Time `json:"created"`
	Updated time.Time `json:"updated"`
	// Verdict is the final response body once State is done.
	Verdict json.RawMessage `json:"verdict,omitempty"`
	// Error is the failure message once State is failed.
	Error string `json:"error,omitempty"`
}

// Terminal reports whether the record reached an immutable state.
func (r *Record) Terminal() bool { return r.State == StateDone || r.State == StateFailed }

// JobID derives the idempotency key of a request encoding. Two requests with
// the same canonical bytes (the seed is part of them) are the same job.
func JobID(canonicalRequest []byte) string {
	return fmt.Sprintf("%x", sha256.Sum256(canonicalRequest))
}

// Store is a directory-backed job store. All methods are safe for concurrent
// use; per-job mutations serialize on the store mutex (job records are a few
// KiB — the accumulator files, which carry the bulk, are written outside any
// lock).
type Store struct {
	dir string
	mu  sync.Mutex
}

// Open creates (if needed) and opens the store directory.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("jobstore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) jobDir(id string) string { return filepath.Join(s.dir, id) }

func (s *Store) recordPath(id string) string { return filepath.Join(s.jobDir(id), "job.json") }

func shardFile(s int) string { return fmt.Sprintf("shard-%04d.acc", s) }

// writeFileAtomic writes data to path via a temp file + rename, fsyncing the
// file so a crash immediately after return cannot lose it.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Create persists a new pending job, or returns the existing record when the
// id is already known (the idempotent path — the second result reports it).
// The record reaches disk before Create returns: an accepted job survives
// any subsequent crash.
func (s *Store) Create(id string, request json.RawMessage, shards int) (*Record, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec, err := s.readRecord(id); err == nil {
		return rec, true, nil
	} else if !errors.Is(err, ErrNotFound) {
		return nil, false, err
	}
	now := time.Now().UTC()
	rec := &Record{
		ID:      id,
		Request: request,
		State:   StatePending,
		Shards:  shards,
		Created: now,
		Updated: now,
	}
	if err := os.MkdirAll(s.jobDir(id), 0o755); err != nil {
		return nil, false, fmt.Errorf("jobstore: %w", err)
	}
	if err := s.writeRecord(rec); err != nil {
		return nil, false, err
	}
	return rec, false, nil
}

// Get returns the record for id, or ErrNotFound.
func (s *Store) Get(id string) (*Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readRecord(id)
}

// List returns every record, ordered by creation time then id.
func (s *Store) List() ([]*Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	var out []*Record
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		rec, err := s.readRecord(e.Name())
		if err != nil {
			// A directory without a readable record is a partially created
			// or torn job: skip it rather than failing the listing.
			continue
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Created.Equal(out[j].Created) {
			return out[i].Created.Before(out[j].Created)
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// Incomplete returns every pending or running record — the recovery set a
// restarted daemon must resume.
func (s *Store) Incomplete() ([]*Record, error) {
	all, err := s.List()
	if err != nil {
		return nil, err
	}
	out := all[:0]
	for _, rec := range all {
		if !rec.Terminal() {
			out = append(out, rec)
		}
	}
	return out, nil
}

// SetRunning marks the job as owned by an executor. Terminal records are
// left untouched (a resumed replay of a done job must not reopen it).
func (s *Store) SetRunning(id string) error {
	return s.update(id, func(rec *Record) error {
		if rec.Terminal() {
			return fmt.Errorf("jobstore: job %s is %s", id, rec.State)
		}
		rec.State = StateRunning
		return nil
	})
}

// Complete records the verdict and moves the job to done. Completing an
// already-done job is a no-op (exactly-once verdicts: the first verdict
// wins; deterministic re-execution makes any second verdict identical
// anyway).
func (s *Store) Complete(id string, verdict json.RawMessage) error {
	return s.update(id, func(rec *Record) error {
		if rec.State == StateDone {
			return nil
		}
		rec.State = StateDone
		rec.Verdict = verdict
		rec.Error = ""
		return nil
	})
}

// Fail records a non-retryable failure.
func (s *Store) Fail(id string, msg string) error {
	return s.update(id, func(rec *Record) error {
		if rec.State == StateDone {
			return fmt.Errorf("jobstore: job %s already done", id)
		}
		rec.State = StateFailed
		rec.Error = msg
		return nil
	})
}

// Requeue returns a non-terminal job to pending (used at recovery time so
// observers see honest state while the job waits for an execution slot).
func (s *Store) Requeue(id string) error {
	return s.update(id, func(rec *Record) error {
		if rec.Terminal() {
			return fmt.Errorf("jobstore: job %s is %s", id, rec.State)
		}
		rec.State = StatePending
		return nil
	})
}

// shardBufs recycles shard encodings across PutShard calls: a 25k-sample
// first-order shard encodes to 800 KB, written once and then dropped.
var shardBufs sync.Pool // *[]byte

// PutShard persists one completed shard accumulator. The write is atomic:
// after a crash the file either holds the complete CRC-clean encoding or
// does not exist.
func (s *Store) PutShard(id string, acc *leakstat.ShardAccum) error {
	buf, _ := shardBufs.Get().(*[]byte)
	if buf == nil {
		buf = new([]byte)
	}
	defer shardBufs.Put(buf)
	data, err := acc.AppendBinary((*buf)[:0])
	if err != nil {
		return err
	}
	*buf = data
	path := filepath.Join(s.jobDir(id), shardFile(acc.Shard))
	if err := writeFileAtomic(path, data); err != nil {
		return fmt.Errorf("jobstore: shard %d of %s: %w", acc.Shard, id, err)
	}
	return nil
}

// Shards loads every readable, checksum-clean shard accumulator of a job,
// keyed by shard index. Torn or corrupt files are silently skipped — they
// read as "not computed yet" and the shard is re-run.
func (s *Store) Shards(id string) (map[int]*leakstat.ShardAccum, error) {
	entries, err := os.ReadDir(s.jobDir(id))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	out := make(map[int]*leakstat.ShardAccum)
	for _, e := range entries {
		var idx int
		if _, err := fmt.Sscanf(e.Name(), "shard-%d.acc", &idx); err != nil {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.jobDir(id), e.Name()))
		if err != nil {
			continue
		}
		acc := new(leakstat.ShardAccum)
		if err := acc.UnmarshalBinary(data); err != nil || acc.Shard != idx {
			continue
		}
		out[idx] = acc
	}
	return out, nil
}

// update applies fn to the record under the lock and persists the result.
func (s *Store) update(id string, fn func(*Record) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, err := s.readRecord(id)
	if err != nil {
		return err
	}
	if err := fn(rec); err != nil {
		return err
	}
	rec.Updated = time.Now().UTC()
	return s.writeRecord(rec)
}

func (s *Store) readRecord(id string) (*Record, error) {
	data, err := os.ReadFile(s.recordPath(id))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	rec := new(Record)
	if err := json.Unmarshal(data, rec); err != nil {
		return nil, fmt.Errorf("jobstore: job %s record corrupt: %w", id, err)
	}
	return rec, nil
}

func (s *Store) writeRecord(rec *Record) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := writeFileAtomic(s.recordPath(rec.ID), data); err != nil {
		return fmt.Errorf("jobstore: job %s: %w", rec.ID, err)
	}
	return nil
}
