//go:build !race

package nn

// raceEnabled reports whether the race detector is active; allocation
// assertions are skipped under -race (instrumentation allocates).
const raceEnabled = false
