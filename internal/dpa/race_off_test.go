//go:build !race

package dpa

// raceEnabled reports the race detector is compiled in; see race_on_test.go.
const raceEnabled = false
