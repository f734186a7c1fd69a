//go:build !race

package leakstat

// raceEnabled gates allocation-count assertions and the long bit-identity
// sweeps; see race_on_test.go.
const raceEnabled = false
