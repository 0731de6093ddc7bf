package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: re-executed with
// FCMA_TEST_MAIN=1 it runs main() on a fresh flag set, so the tests below
// observe real exit codes and real flag-package output.
func TestMain(m *testing.M) {
	if os.Getenv("FCMA_TEST_MAIN") == "1" {
		flag.CommandLine = flag.NewFlagSet("fcma-bench", flag.ExitOnError)
		main()
		return
	}
	os.Exit(m.Run())
}

func TestFlagsAndExitCodes(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // substring of the output
	}{
		{"retired json flag", []string{"-json", ".", "table2"}, 2, "flag provided but not defined: -json"},
		{"retired native-scale flag", []string{"-native-scale", "0.02", "native-ledger"}, 2, "flag provided but not defined: -native-scale\n"},
		{"scale out of range", []string{"-scale", "7", "table2"}, 2, "-scale 7 out of range (0, 1]"},
		{"unknown experiment", []string{"table99"}, 2, `unknown experiment "table99"`},
		{"one model table", []string{"-scale", "0.01", "table2"}, 0, "Table 2"},
	} {
		cmd := exec.Command(exe, tc.args...)
		cmd.Env = append(os.Environ(), "FCMA_TEST_MAIN=1")
		out, err := cmd.CombinedOutput()
		code := 0
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if code != tc.code || !strings.Contains(string(out), tc.want) {
			t.Errorf("%s: exit %d, want %d with %q in the output:\n%s", tc.name, code, tc.code, tc.want, out)
		}
	}
}

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
