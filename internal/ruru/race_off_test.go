//go:build !race

package ruru

// raceEnabled reports whether the race detector is active; the 100-viewer
// fan-out leg skips under -race, whose instrumentation multiplies its cost.
const raceEnabled = false
