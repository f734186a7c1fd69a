package verdict

import (
	"container/list"
	"context"
	"sync"

	"desmask/internal/sim"
)

// Cache is a bounded LRU of compiled+predecoded machines keyed by (source
// identity, policy, ISA, optimize, shuffle). A hit skips the entire maskcc
// pipeline and micro-op predecode; repeat submissions of the same program
// reuse one sim.Runner and its warm worker pool.
//
// Concurrent requests for the same missing key build once: the first caller
// owns the build, later callers block on the entry's ready channel. A failed
// build is not retained — the error propagates to every waiter and the key
// is removed so a later submission can retry.
type Cache struct {
	// gang, when non-nil, receives the lockstep lane outcomes of every
	// runner the cache builds (sim.Runner.GangCounts).
	gang *sim.GangCounters

	mu      sync.Mutex
	max     int
	entries map[cacheKey]*cacheEntry
	order   *list.List // front = most recently used; values are cacheKey

	hits, misses uint64
}

// cacheKey identifies one compiled program build.
type cacheKey struct {
	// Source is "workload:<name>" for built-ins or "sha256:<hex>" for
	// submitted MiniC source.
	Source   string
	Policy   string
	ISA      string
	Optimize bool
	// Shuffle distinguishes shuffled builds: the same source under the same
	// policy emits different code when operand shuffling is on.
	Shuffle bool
}

type cacheEntry struct {
	ready chan struct{} // closed once value/err are set
	value any
	err   error
	elem  *list.Element
}

// NewCache returns an empty cache of at most max programs (<= 0: 16) that
// points each runner it builds at gang (nil: the runner's own counters).
func NewCache(max int, gang *sim.GangCounters) *Cache {
	if max <= 0 {
		max = 16
	}
	return &Cache{
		gang:    gang,
		max:     max,
		entries: make(map[cacheKey]*cacheEntry),
		order:   list.New(),
	}
}

// getOrBuild returns the cached value for key, building it with build on a
// miss. The second result reports whether this was a hit (including hitting
// an entry another request is still building). A waiter whose context dies
// before the build finishes returns the context's error; the build itself
// continues and lands in the cache for later requests. A nil cache builds
// every time.
func (c *Cache) getOrBuild(ctx context.Context, key cacheKey, build func() (any, error)) (any, bool, error) {
	if c == nil {
		v, err := build()
		return v, false, err
	}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.order.MoveToFront(e.elem)
		c.mu.Unlock()
		select {
		case <-e.ready:
			return e.value, true, e.err
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
	c.misses++
	e := &cacheEntry{ready: make(chan struct{})}
	e.elem = c.order.PushFront(key)
	c.entries[key] = e
	c.evictCompleted()
	c.mu.Unlock()

	e.value, e.err = build()
	close(e.ready)
	if e.err != nil {
		c.mu.Lock()
		// Only remove if the key still maps to this failed entry (it may
		// already have been evicted).
		if cur, ok := c.entries[key]; ok && cur == e {
			c.order.Remove(e.elem)
			delete(c.entries, key)
		}
		c.mu.Unlock()
	}
	return e.value, false, e.err
}

// evictCompleted trims the cache to max, least recently used first, skipping
// entries whose build is still in flight. Evicting an in-flight entry would
// detach it from the key while its owner still runs: a concurrent identical
// submission would miss and silently start a duplicate compile, and the
// owner's failed-build cleanup would then operate on an already-removed list
// element. If every surplus entry is still building, the cache transiently
// exceeds max instead. Callers hold c.mu.
func (c *Cache) evictCompleted() {
	for el := c.order.Back(); el != nil && c.order.Len() > c.max; {
		prev := el.Prev()
		k := el.Value.(cacheKey)
		e := c.entries[k]
		select {
		case <-e.ready:
			c.order.Remove(el)
			delete(c.entries, k)
		default:
			// Build in flight — not evictable yet.
		}
		el = prev
	}
}

// Stats returns the lifetime hit/miss counters.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len reports the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
