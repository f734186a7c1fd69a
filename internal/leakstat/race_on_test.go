//go:build race

package leakstat

// raceEnabled gates allocation-count assertions: the race detector
// instruments allocations, so counts are only meaningful without it. It also
// skips the long bit-identity sweeps whose concurrency other tests already
// run under the detector.
const raceEnabled = true
