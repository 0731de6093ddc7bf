package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"fcma/internal/fmri"
)

// TestMain lets the test binary stand in for the command: re-executed with
// FCMA_TEST_MAIN=1 it runs main() on a fresh flag set, so the tests below
// observe real exit codes and real flag-package output.
func TestMain(m *testing.M) {
	if os.Getenv("FCMA_TEST_MAIN") == "1" {
		flag.CommandLine = flag.NewFlagSet("fcma-gen", flag.ExitOnError)
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

func TestCustomSpecRoundTrips(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "ds")
	code, out := run(t, "-dataset", "custom", "-voxels", "40", "-subjects", "3",
		"-epochs", "4", "-epoch-len", "5", "-signal", "8", "-out", prefix)
	if code != 0 || !strings.Contains(out, "(40 voxels x ") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	df, err := os.Open(prefix + ".fcma")
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	ef, err := os.Open(prefix + ".epochs")
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	d, err := fmri.Read(df, ef)
	if err != nil {
		t.Fatal(err)
	}
	epochs := d.Epochs
	if d.Voxels() != 40 || d.Subjects != 3 || len(epochs) != 3*4 {
		t.Errorf("read back %d voxels, %d subjects, %d epochs; want 40, 3, 12", d.Voxels(), d.Subjects, len(epochs))
	}
	for _, e := range epochs {
		if e.Len != 5 || e.Start+e.Len > d.TimePoints() {
			t.Fatalf("epoch %+v does not fit %d time points at length 5", e, d.TimePoints())
		}
	}
}

func TestBadFlagsWriteNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // substring of the output
	}{
		{"unknown dataset", []string{"-dataset", "nope"}, 1, `fcma-gen: unknown dataset "nope"`},
		{"scale zero", []string{"-scale", "0"}, 2, "fcma-gen: -scale 0 out of range (0, 1]"},
		{"scale above one", []string{"-scale", "1.5"}, 2, "fcma-gen: -scale 1.5 out of range (0, 1]"},
		{"scale typo on the other dataset", []string{"-dataset", "attention", "-scale", "7"}, 2, "-scale 7 out of range (0, 1]"},
	} {
		dir := t.TempDir()
		code, out := run(t, append(tc.args, "-out", filepath.Join(dir, "ds"))...)
		if code != tc.code || !strings.Contains(out, tc.want) {
			t.Errorf("%s: exit %d, want %d with %q in the output:\n%s", tc.name, code, tc.code, tc.want, out)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("%s: wrote %d file(s) before failing", tc.name, len(left))
		}
	}
}
