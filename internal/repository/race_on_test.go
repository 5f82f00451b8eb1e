//go:build race

package repository

// raceEnabled reports whether the race detector instruments this build;
// the allocation guards skip under it because instrumentation changes
// allocation counts.
const raceEnabled = true
