package verdict

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// TestCacheInFlightNotEvicted: under a size-1 cache, inserting a second key
// while the first is still building must not evict the in-flight entry — a
// concurrent identical submission joins the running build instead of
// silently compiling a duplicate.
func TestCacheInFlightNotEvicted(t *testing.T) {
	c := NewCache(1, nil)
	k1 := cacheKey{Source: "workload:one"}
	k2 := cacheKey{Source: "workload:two"}

	started := make(chan struct{})
	release := make(chan struct{})
	var builds atomic.Int32
	first := make(chan any, 1)
	go func() {
		v, _, err := c.getOrBuild(context.Background(), k1, func() (any, error) {
			builds.Add(1)
			close(started)
			<-release
			return "v1", nil
		})
		if err != nil {
			first <- err
		} else {
			first <- v
		}
	}()
	<-started

	// The insert that used to evict the in-flight entry.
	if v, _, err := c.getOrBuild(context.Background(), k2, func() (any, error) { return "v2", nil }); err != nil || v != "v2" {
		t.Fatalf("second key: %v %v", v, err)
	}

	// A concurrent identical submission must block on the running build
	// (and would instead return "dup" immediately if k1 had been evicted).
	joined := make(chan any, 1)
	go func() {
		v, _, err := c.getOrBuild(context.Background(), k1, func() (any, error) {
			builds.Add(1)
			return "dup", nil
		})
		if err != nil {
			joined <- err
		} else {
			joined <- v
		}
	}()
	select {
	case v := <-joined:
		t.Fatalf("identical submission did not join the in-flight build: got %v", v)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if v := <-first; v != "v1" {
		t.Fatalf("owner got %v", v)
	}
	if v := <-joined; v != "v1" {
		t.Fatalf("joiner got %v", v)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("key built %d times, want 1", n)
	}

	// A waiter whose context dies mid-build gets the context error while
	// the build itself carries on for later requests.
	k3 := cacheKey{Source: "workload:three"}
	started3 := make(chan struct{})
	release3 := make(chan struct{})
	go func() {
		c.getOrBuild(context.Background(), k3, func() (any, error) {
			close(started3)
			<-release3
			return "v3", nil
		})
	}()
	<-started3
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.getOrBuild(dead, k3, func() (any, error) { return nil, nil }); err != context.Canceled {
		t.Fatalf("dead waiter returned %v, want context.Canceled", err)
	}
	close(release3)
}
