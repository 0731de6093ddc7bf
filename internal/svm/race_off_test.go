//go:build !race

package svm

const raceEnabled = false
