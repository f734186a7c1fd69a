package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie above a reported tail percentile.
const tailBeyond = 10

// Median returns the median of xs (NaN when empty).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Tail is the highest percentile of a sample that still has at least
// tailBeyond samples beyond it.
type Tail struct {
	Value      float64
	Percentile float64 // share of samples at or below Value, in percent
	N          int     // sample count
	Beyond     int     // samples strictly above the reported rank
}

// TailPercentile picks the sorted sample with exactly tailBeyond samples
// above it. ok is false when there are too few samples for any such rank.
func TailPercentile(xs []float64) (t Tail, ok bool) {
	n := len(xs)
	if n < tailBeyond+1 {
		return Tail{N: n}, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - tailBeyond - 1
	return Tail{Value: s[k], Percentile: 100 * float64(k+1) / float64(n), N: n, Beyond: n - 1 - k}, true
}
