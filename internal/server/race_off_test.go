//go:build !race

package server

// raceEnabled reports that the race detector is active; allocation-
// count pins are skipped, since instrumentation allocates.
const raceEnabled = false
