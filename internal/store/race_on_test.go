//go:build race

package store

// raceEnabled reports whether the race detector instruments this build;
// allocation guardrails skip under it because instrumentation changes
// allocation counts.
const raceEnabled = true
