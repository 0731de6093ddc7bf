package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: re-executed with
// FCMA_TEST_MAIN=1 it runs main() on a fresh flag set, so the tests below
// observe real exit codes and real flag-package output.
func TestMain(m *testing.M) {
	if os.Getenv("FCMA_TEST_MAIN") == "1" {
		flag.CommandLine = flag.NewFlagSet("fcmavet", flag.ExitOnError)
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

func TestListIsTheRegistryInOrder(t *testing.T) {
	code, out := run(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit %d:\n%s", code, out)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := "rawgoroutine ctxflow f32purity fsyncrename httptimeouts obsnames"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("-list names:\n got %s\nwant %s", got, want)
	}
}

func TestFlagErrorsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of the output
	}{
		{"unknown analyzer", []string{"-analyzers", "nosuch"}, `fcmavet: unknown analyzer "nosuch" (see fcmavet -list)`},
		{"removed analyzer", []string{"-analyzers", "lockcopy"}, `fcmavet: unknown analyzer "lockcopy"`},
		{"retired analyzer", []string{"-analyzers", "obsnames,allocfree"}, `fcmavet: unknown analyzer "allocfree"`},
		{"retired json flag", []string{"-json", "./..."}, "flag provided but not defined: -json"},
	} {
		code, out := run(t, tc.args...)
		if code != 2 || !strings.Contains(out, tc.want) {
			t.Errorf("%s: exit %d, want 2 with %q in the output:\n%s", tc.name, code, tc.want, out)
		}
	}
}

func TestFindingExitsOneInTheOneFormat(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "lint", "testdata", "src", "rawgoroutine")
	code, out := run(t, "-C", fixture, "./...")
	line := regexp.MustCompile(`(?m)^internal/pipe/pipe\.go:\d+:\d+: raw go statement .* \[rawgoroutine\]$`)
	if code != 1 || !line.MatchString(out) || !strings.Contains(out, "fcmavet: 1 finding(s)") {
		t.Errorf("exit %d, want 1 with one file:line:col finding:\n%s", code, out)
	}
}

func TestCleanModuleExitsZeroSilently(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module example.test\n\ngo 1.22\n",
		"lib.go": "package lib\n\n// Add is clean under every analyzer.\nfunc Add(a, b int) int { return a + b }\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if code, out := run(t, "-C", dir, "./..."); code != 0 || out != "" {
		t.Errorf("exit %d, want 0 and no output:\n%s", code, out)
	}
}
