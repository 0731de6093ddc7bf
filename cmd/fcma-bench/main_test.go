package main

import "testing"

// The "all" default must cover exactly the model-based experiment set —
// derived from the registration map, so adding an experiment to
// modelExperiments automatically lands it in "all", and the natives stay
// opt-in.
func TestDefaultExperimentsMatchModelSet(t *testing.T) {
	model := modelExperiments(nil)
	def := defaultExperiments()
	if len(def) != len(model) {
		t.Fatalf("default set has %d experiments, model map has %d: %v", len(def), len(model), def)
	}
	seen := map[string]bool{}
	for _, n := range def {
		if _, ok := model[n]; !ok {
			t.Fatalf("default set includes non-model experiment %q", n)
		}
		if seen[n] {
			t.Fatalf("default set lists %q twice", n)
		}
		seen[n] = true
	}
	for _, n := range def {
		if _, ok := nativeExperiments[n]; ok {
			t.Fatalf("native cross-check %q must stay opt-in", n)
		}
	}
}

// Every name is either a model experiment or a native cross-check, and the
// model-vs-measured ledger is one of the natives: listed, runnable by name,
// and not part of "all".
func TestExperimentNamesListNatives(t *testing.T) {
	model := modelExperiments(nil)
	listed := map[string]bool{}
	for _, n := range experimentNames() {
		listed[n] = true
		_, isModel := model[n]
		_, isNative := nativeExperiments[n]
		if isModel == isNative {
			t.Fatalf("experiment %q: model=%v native=%v, want exactly one", n, isModel, isNative)
		}
	}
	for n := range nativeExperiments {
		if !listed[n] {
			t.Fatalf("native %q registered but missing from experimentNames()", n)
		}
	}
	if _, ok := nativeExperiments["native-ledger"]; !ok {
		t.Fatal("native-ledger is not a registered native cross-check")
	}
}

// Every model experiment must appear in the canonical name listing, or
// defaultExperiments (which intersects the two) would silently drop it.
func TestExperimentNamesCoverModelMap(t *testing.T) {
	listed := map[string]bool{}
	for _, n := range experimentNames() {
		listed[n] = true
	}
	for n := range modelExperiments(nil) {
		if !listed[n] {
			t.Fatalf("experiment %q registered but missing from experimentNames()", n)
		}
	}
}
