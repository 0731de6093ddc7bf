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
		flag.CommandLine = flag.NewFlagSet("fcma-run", flag.ExitOnError)
		main()
		return
	}
	os.Exit(m.Run())
}

// run executes the command with args and returns its exit code and its
// combined stdout and stderr.
func run(t *testing.T, args ...string) (int, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "FCMA_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode(), string(out)
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, string(out)
}

func TestFlagsAndExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // substring of the output
	}{
		{"retired engine flag", []string{"-engine", "baseline"}, 2, "flag provided but not defined: -engine"},
		{"scale out of range", []string{"-synthetic", "face-scene", "-scale", "7"}, 2, "-scale 7 out of range (0, 1]"},
		{"no input", nil, 1, "need -data and -epochs, -nii and -epochs, or -synthetic"},
		{"unknown synthetic", []string{"-synthetic", "nope"}, 1, `unknown synthetic dataset \"nope\"`},
		{"unknown mode", []string{"-mode", "nope", "-synthetic", "face-scene", "-scale", "0.002"}, 1, `unknown mode \"nope\"`},
	} {
		code, out := run(t, tc.args...)
		if code != tc.code || !strings.Contains(out, tc.want) {
			t.Errorf("%s: exit %d, want %d with %q in the output:\n%s", tc.name, code, tc.code, tc.want, out)
		}
	}
}

func TestHelpListsSharedFlagsAndNoEngine(t *testing.T) {
	code, out := run(t, "-h")
	if code != 0 {
		t.Fatalf("-h exit %d:\n%s", code, out)
	}
	for _, want := range []string{
		"  -mode string",
		"  -workers int",
		"  -log-format string\n    \tstatus log format: \"text\" or \"json\" (default \"text\")",
		"  -flight-out string\n    \twrite flight-recorder crash dumps to this file instead of stderr (created only if a dump fires)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-h output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(strings.ToLower(out), "engine") {
		t.Errorf("-h still mentions an engine:\n%s", out)
	}
}
