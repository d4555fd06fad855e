//go:build !race

package core

// raceEnabled reports that the race detector is active; allocation-
// count pins are skipped, since instrumentation allocates.
const raceEnabled = false
