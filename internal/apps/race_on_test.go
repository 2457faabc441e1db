//go:build race

package apps

// raceEnabled reports that the race runtime is active: its
// instrumentation allocates, so allocation-count pins are skipped.
const raceEnabled = true
