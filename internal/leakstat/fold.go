package leakstat

import (
	"context"
	"fmt"
	"sync"

	"desmask/internal/sim"
)

// Fold is the one reduction of an assessment's shards: shard accumulators
// arrive in any order, from any executor, and merge in shard-index order as
// soon as the contiguous prefix extends. Merging only ever appends to the
// prefix, in the order a single-node sweep merges, so the prefix is at every
// step the exact fold of its shards' trace range and the full fold is
// bit-identical to AssessContext. The fold reads an added accumulator only
// until it merges it and never writes to it. A Fold is safe for concurrent
// use.
type Fold struct {
	p *plan

	mu      sync.Mutex
	added   []bool        // added[s]: shard s was added
	pending []*ShardAccum // pending[s]: shard s, added but not merged yet
	held    int
	prefix  int
	fixed   *Vec
	random  *Vec
	state   int // accumulator bytes the assessment holds (Report.StateBytes)
	cycles  uint64
}

// NewFold returns an empty fold over cfg's shard partition.
func NewFold(cfg Config) (*Fold, error) {
	p, err := newPlan(cfg)
	if err != nil {
		return nil, err
	}
	f := &Fold{
		p:       p,
		added:   make([]bool, p.shards),
		pending: make([]*ShardAccum, p.shards),
		fixed:   NewVecOrder(p.L, p.order),
		random:  NewVecOrder(p.L, p.order),
	}
	f.state = f.fixed.StateBytes() + f.random.StateBytes()
	return f, nil
}

// Add takes one shard's accumulators. It rejects, leaving the fold
// unchanged, a shard outside the partition or added before, and
// accumulators of another window length or statistical order; otherwise it
// merges every shard the contiguous prefix now reaches.
func (f *Fold) Add(acc *ShardAccum) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if acc == nil || acc.Fixed == nil || acc.Random == nil {
		return fmt.Errorf("leakstat: missing shard accumulator")
	}
	s := acc.Shard
	switch {
	case s < 0 || s >= f.p.shards:
		return fmt.Errorf("leakstat: shard %d out of range [0,%d)", s, f.p.shards)
	case f.added[s]:
		return fmt.Errorf("leakstat: shard %d added twice", s)
	case acc.Fixed.Len() != f.p.L || acc.Random.Len() != f.p.L:
		return fmt.Errorf("leakstat: shard %d has %d/%d samples, want %d", s, acc.Fixed.Len(), acc.Random.Len(), f.p.L)
	case acc.Fixed.Order() != f.p.order || acc.Random.Order() != f.p.order:
		return fmt.Errorf("leakstat: shard %d is order %d/%d, want %d", s, acc.Fixed.Order(), acc.Random.Order(), f.p.order)
	}
	f.added[s], f.pending[s] = true, acc
	f.held++
	f.state += acc.Fixed.StateBytes() + acc.Random.StateBytes()
	f.cycles += acc.Cycles
	for ; f.prefix < f.p.shards && f.pending[f.prefix] != nil; f.prefix++ {
		next := f.pending[f.prefix]
		// Length and order were checked above, so neither merge can fail.
		_ = f.fixed.Merge(next.Fixed)
		_ = f.random.Merge(next.Random)
		f.pending[f.prefix] = nil
	}
	return nil
}

// merged returns the length of the merged prefix.
func (f *Fold) merged() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.prefix
}

// FoldProgress is a consistent view of a fold part way through.
type FoldProgress struct {
	// Shards is the partition size; Held counts the shards added.
	Shards, Held int
	// Prefix is the length of the contiguous merged prefix of shards.
	Prefix int
	// MaxAbsT is the prefix population's max |t|, at the configured order
	// and clamped like Report.MaxAbsT; 0 while either population of the
	// prefix has fewer than two traces. At Prefix == Shards it is the
	// verdict's MaxAbsT, bit for bit.
	MaxAbsT float64
}

// Progress returns the fold's progress, computing the prefix t-statistic.
func (f *Fold) Progress() FoldProgress {
	f.mu.Lock()
	defer f.mu.Unlock()
	pr := FoldProgress{Shards: f.p.shards, Held: f.held, Prefix: f.prefix}
	if t, err := f.welch(); err == nil {
		peak, _ := MaxAbs(t)
		pr.MaxAbsT = clampFinite(peak)
	}
	return pr
}

// welch is the t-vector of the merged prefix at the configured order.
// Callers hold f.mu.
func (f *Fold) welch() ([]float64, error) {
	if f.p.order >= 2 {
		return WelchT2(f.fixed, f.random)
	}
	return WelchT(f.fixed, f.random)
}

// Report computes the verdict of a fold that holds every shard.
func (f *Fold) Report() (*Report, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.prefix < f.p.shards {
		return nil, fmt.Errorf("leakstat: missing accumulator for shard %d", f.prefix)
	}
	t, err := f.welch()
	if err != nil {
		return nil, err
	}
	p := f.p
	peak, at := MaxAbs(t)
	return &Report{
		NumTraces:       p.cfg.NumTraces,
		FixedN:          p.nFixed,
		RandomN:         p.cfg.NumTraces - p.nFixed,
		Shards:          p.shards,
		WindowStart:     p.win.Start,
		WindowEnd:       p.win.End,
		Order:           p.order,
		Threshold:       p.threshold,
		MaxAbsT:         clampFinite(peak),
		MaxTCycle:       p.win.Start + at,
		Leak:            peak > p.threshold,
		StateBytes:      f.state,
		CyclesSimulated: f.cycles,
		T:               t,
		Fixed:           f.fixed,
		Random:          f.random,
	}, nil
}

// Run is the shard driver: it computes every shard the fold does not hold
// yet on cfg.Workers goroutines (<= 0 uses GOMAXPROCS), adds each to the
// fold and returns the verdict. exec, when non-nil, computes a shard in
// place of the in-process run (leakd forwards shards to peer processes
// through it). done, when non-nil, is called with each computed shard after
// the fold took it; calls to done come one at a time, from Run's goroutine,
// and the fold takes no other shard while one runs, so done sees the fold
// exactly as its shard left it. done must not keep the accumulator after it
// returns: the in-process executor reuses an accumulator pair for a later
// shard once the fold has merged it and done has returned, so a verdict
// allocates about one pair per worker rather than one per shard.
//
// A failed run returns the lowest-index failing shard's error. Workers
// check the context between traces; a cancelled run returns only the
// context's error, never a verdict over the shards it did compute.
func (f *Fold) Run(ctx context.Context, src Source, exec func(ctx context.Context, shard int) (*ShardAccum, error), done func(*ShardAccum)) (*Report, error) {
	f.mu.Lock()
	var missing []int
	for s, added := range f.added {
		if !added {
			missing = append(missing, s)
		}
	}
	f.mu.Unlock()

	// own[s] is the in-process executor's accumulator of shard s until the
	// fold has merged it; it then goes to free for another shard.
	var own []*ShardAccum
	var free chan *ShardAccum
	if exec == nil {
		own = make([]*ShardAccum, f.p.shards)
		free = make(chan *ShardAccum, len(missing))
		exec = func(ctx context.Context, s int) (*ShardAccum, error) {
			var acc *ShardAccum
			select {
			case acc = <-free:
			default:
			}
			return f.p.runShard(ctx, src, s, acc)
		}
	}
	landed := make(chan *ShardAccum)
	runErr := make(chan error, 1)
	go func() {
		runErr <- sim.ForEachContext(ctx, len(missing), f.p.cfg.Workers, func(i int) error {
			acc, err := exec(ctx, missing[i])
			if err != nil {
				return err
			}
			landed <- acc
			return nil
		})
		close(landed)
	}()
	var addErr error
	reclaimed := 0 // own[:reclaimed] went to free
	for acc := range landed {
		if err := f.Add(acc); err != nil {
			if addErr == nil {
				addErr = err
			}
			continue
		}
		if done != nil {
			done(acc)
		}
		if own == nil {
			continue
		}
		own[acc.Shard] = acc
		for n := f.merged(); reclaimed < n; reclaimed++ {
			if a := own[reclaimed]; a != nil {
				free <- a
				own[reclaimed] = nil
			}
		}
	}
	if err := <-runErr; err != nil {
		return nil, err
	}
	if addErr != nil {
		return nil, addErr
	}
	return f.Report()
}
