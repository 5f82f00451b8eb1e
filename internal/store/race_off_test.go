//go:build !race

package store

// raceEnabled reports whether the race detector instruments this build;
// the allocation guard skips under it because instrumentation changes
// allocation counts.
const raceEnabled = false
