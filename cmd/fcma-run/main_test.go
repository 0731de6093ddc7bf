package main

import (
	"bufio"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"fcma/internal/obs/trace"
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

// command prepares the test binary to run as the command with args.
func command(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "FCMA_TEST_MAIN=1")
	return cmd
}

// exitCode maps a finished command's error to its exit code.
func exitCode(t *testing.T, err error) int {
	t.Helper()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0
}

// run executes the command with args and returns its exit code and its
// combined stdout and stderr.
func run(t *testing.T, args ...string) (int, string) {
	t.Helper()
	out, err := command(t, args...).CombinedOutput()
	return exitCode(t, err), string(out)
}

func TestFlagsAndExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // substring of the output
	}{
		{"retired engine flag", []string{"-engine", "baseline"}, 2, "flag provided but not defined: -engine"},
		{"retired bench-out flag", []string{"-bench-out", "."}, 2, "flag provided but not defined: -bench-out"},
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

// requireTaskTrace fails unless path holds a Chrome trace with at least one
// core/task span.
func requireTaskTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("no trace file: %v", err)
	}
	defer f.Close()
	spans, err := trace.ReadChrome(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range spans {
		if s.Name == "core/task" {
			return
		}
	}
	t.Fatalf("%d spans in %s, none of them core/task", len(spans), path)
}

// TestTraceOutSurvivesErrorExits: -trace-out is written on the way out of a
// run that was interrupted (exit 130) or failed (exit 1), the runs whose
// timeline is wanted; both leave through os.Exit, which skips defers.
func TestTraceOutSurvivesErrorExits(t *testing.T) {
	dir := t.TempDir()

	failed := filepath.Join(dir, "failed.json")
	code, out := run(t, "-mode", "select", "-synthetic", "face-scene", "-scale", "0.005",
		"-out-scores", filepath.Join(dir, "no-such-dir", "scores.csv"), "-trace-out", failed)
	if code != 1 {
		t.Fatalf("unwritable -out-scores: exit %d, want 1:\n%s", code, out)
	}
	requireTaskTrace(t, failed)

	// Interrupted once a progress line shows voxels scored: the signal
	// handler is installed and a task is under way, seconds from its end.
	interrupted := filepath.Join(dir, "interrupted.json")
	cmd := command(t, "-mode", "select", "-synthetic", "attention", "-scale", "0.05",
		"-progress", "10ms", "-trace-out", interrupted)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	scoring := regexp.MustCompile(`^fcma-run: [1-9][0-9]*/[0-9]+ voxels`)
	lines := bufio.NewReader(stderr)
	for {
		line, err := lines.ReadString('\n')
		if err != nil {
			t.Fatalf("run ended before it reported a scored voxel: %v", err)
		}
		if scoring.MatchString(line) {
			break
		}
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(lines)
	if code := exitCode(t, cmd.Wait()); code != 130 || !strings.Contains(string(rest), "run cancelled") {
		t.Fatalf("interrupted run: exit %d, want 130 with \"run cancelled\" on stderr:\n%s", code, rest)
	}
	requireTaskTrace(t, interrupted)
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
