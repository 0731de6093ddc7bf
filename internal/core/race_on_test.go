//go:build race

package core

// raceEnabled reports that the race detector is instrumenting this build;
// its shadow-memory bookkeeping allocates, so the alloc pin is skipped.
const raceEnabled = true
