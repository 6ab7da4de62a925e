//go:build race

package core

// raceEnabled reports whether the race detector instruments this test
// binary.
const raceEnabled = true
