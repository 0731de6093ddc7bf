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
		flag.CommandLine = flag.NewFlagSet("fcma-serve", flag.ExitOnError)
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
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // substring of the output
	}{
		{"retired engine flag", []string{"-engine", "baseline"}, 2, "flag provided but not defined: -engine"},
		{"unparsable duration", []string{"-job-timeout", "soon"}, 2, "invalid value \"soon\" for flag -job-timeout"},
		{"retired chaos-seed flag", []string{"-chaos-seed", "1"}, 2, "flag provided but not defined: -chaos-seed\n"},
		{"retired chaos-kill-chunks flag", []string{"-chaos-kill-chunks", "1"}, 2, "flag provided but not defined: -chaos-kill-chunks\n"},
		{"retired chaos-fs-torn flag", []string{"-chaos-fs-torn", "1"}, 2, "flag provided but not defined: -chaos-fs-torn\n"},
		{"retired chaos-fs-enospc flag", []string{"-chaos-fs-enospc", "1"}, 2, "flag provided but not defined: -chaos-fs-enospc\n"},
		{"retired chaos-fs-slow-sync flag", []string{"-chaos-fs-slow-sync", "1"}, 2, "flag provided but not defined: -chaos-fs-slow-sync\n"},
		{"retired chaos-fs-rename-fail flag", []string{"-chaos-fs-rename-fail", "1"}, 2, "flag provided but not defined: -chaos-fs-rename-fail\n"},
		{"retired chaos-sched-delay flag", []string{"-chaos-sched-delay", "1"}, 2, "flag provided but not defined: -chaos-sched-delay\n"},
		{"unusable listen address", []string{"-dir", dir, "-listen", "a:b:c"}, 1, "listen"},
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
		"  -listen string",
		"  -queue-cap int",
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
