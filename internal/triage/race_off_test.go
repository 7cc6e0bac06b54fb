//go:build !race

package triage

// raceEnabled reports whether the race detector instruments this build; the
// allocation-count test skips under it because instrumentation allocates.
const raceEnabled = false
