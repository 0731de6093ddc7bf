//go:build race

package svm

// raceEnabled reports that the race detector is instrumenting this build;
// under it sync.Pool drops entries at random, so the alloc pin is skipped.
const raceEnabled = true
