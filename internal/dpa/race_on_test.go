//go:build race

package dpa

// raceEnabled reports the race detector is compiled in. The oracle
// equivalence tests skip under it: they are single-goroutine arithmetic,
// which the detector slows about thirtyfold without checking anything; the
// CI workflow runs them in a dedicated race-free step instead.
const raceEnabled = true
