package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"fcma"
	"fcma/internal/fmri"
)

// TestMain lets the test binary stand in for the command: re-executed with
// FCMA_TEST_MAIN=1 it runs main() on a fresh flag set, so the tests below
// observe real exit codes and real flag-package output.
func TestMain(m *testing.M) {
	if os.Getenv("FCMA_TEST_MAIN") == "1" {
		flag.CommandLine = flag.NewFlagSet("fcma-cluster", flag.ExitOnError)
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

// writeDataset writes a small dataset the way fcma-gen does and returns
// the -data and -epochs paths.
func writeDataset(t *testing.T) (string, string) {
	t.Helper()
	d, err := fmri.Generate(fmri.Spec{
		Name: "flags", Voxels: 16, Subjects: 2, EpochsPerSubject: 4,
		EpochLen: 12, RestLen: 2, SignalVoxels: 4, Coupling: 0.8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "ds")
	df, err := os.Create(base + ".fcma")
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	if err := fmri.WriteData(df, d); err != nil {
		t.Fatal(err)
	}
	ef, err := os.Create(base + ".epochs")
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	if err := fmri.WriteEpochs(ef, d.Epochs); err != nil {
		t.Fatal(err)
	}
	return base + ".fcma", base + ".epochs"
}

func TestFlagsAndExitCodes(t *testing.T) {
	data, epochs := writeDataset(t)
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // substring of the output
	}{
		{"retired engine flag", []string{"-role", "worker", "-engine", "baseline"}, 2, "flag provided but not defined: -engine"},
		{"retired checkpoint flag", []string{"-role", "master", "-checkpoint", "x"}, 2, "flag provided but not defined: -checkpoint\nUsage of fcma-cluster:"},
		{"retired bench-out flag", []string{"-role", "master", "-bench-out", "."}, 2, "flag provided but not defined: -bench-out"},
		{"retired resume flag", []string{"-role", "master", "-resume", "1"}, 2, "flag provided but not defined: -resume\n"},
		{"retired trace flag", []string{"-role", "master", "-trace", "1"}, 2, "flag provided but not defined: -trace\n"},
		{"retired heartbeat flag", []string{"-role", "master", "-heartbeat", "1"}, 2, "flag provided but not defined: -heartbeat\n"},
		{"retired chaos-seed flag", []string{"-role", "master", "-chaos-seed", "1"}, 2, "flag provided but not defined: -chaos-seed\n"},
		{"retired chaos-kill-tasks flag", []string{"-role", "master", "-chaos-kill-tasks", "1"}, 2, "flag provided but not defined: -chaos-kill-tasks\n"},
		{"retired chaos-fs-torn flag", []string{"-role", "master", "-chaos-fs-torn", "1"}, 2, "flag provided but not defined: -chaos-fs-torn\n"},
		{"retired chaos-fs-enospc flag", []string{"-role", "master", "-chaos-fs-enospc", "1"}, 2, "flag provided but not defined: -chaos-fs-enospc\n"},
		{"retired chaos-fs-slow-sync flag", []string{"-role", "master", "-chaos-fs-slow-sync", "1"}, 2, "flag provided but not defined: -chaos-fs-slow-sync\n"},
		{"retired chaos-fs-rename-fail flag", []string{"-role", "master", "-chaos-fs-rename-fail", "1"}, 2, "flag provided but not defined: -chaos-fs-rename-fail\n"},
		{"retired chaos-sched-delay flag", []string{"-role", "master", "-chaos-sched-delay", "1"}, 2, "flag provided but not defined: -chaos-sched-delay\n"},
		{"no dataset", []string{"-role", "worker"}, 1, "need -data and -epochs"},
		{"worker without -addr", []string{"-role", "worker", "-data", data, "-epochs", epochs}, 1, "worker needs -addr"},
		{"no role", []string{"-data", data, "-epochs", epochs}, 1, "need -role master or -role worker"},
	} {
		code, out := run(t, tc.args...)
		if code != tc.code || !strings.Contains(out, tc.want) {
			t.Errorf("%s: exit %d, want %d with %q in the output:\n%s", tc.name, code, tc.code, tc.want, out)
		}
	}
}

// TestInterruptExits130: SIGINT reaches a run through its context wherever
// it is, and every path out agrees on "run cancelled", exit 130 — a master
// still waiting for its quorum and a worker (its epoch stack built) whose
// dial waits on a handshake that never comes. Both are interrupted only
// once an event shows the signal handler is installed.
func TestInterruptExits130(t *testing.T) {
	data, epochs := writeDataset(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for _, tc := range []struct {
		name  string
		args  []string
		ready func(stdout *bufio.Reader) error // returns once the process is past signal.NotifyContext
	}{
		{"master accepting", []string{"-role", "master", "-listen", "127.0.0.1:0", "-workers", "1", "-data", data, "-epochs", epochs},
			func(stdout *bufio.Reader) error { _, err := stdout.ReadString('\n'); return err }},
		{"worker dialing", []string{"-role", "worker", "-addr", ln.Addr().String(), "-data", data, "-epochs", epochs},
			func(*bufio.Reader) error { _, err := ln.Accept(); return err }},
	} {
		cmd := command(t, tc.args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		defer cmd.Process.Kill()
		if err := tc.ready(bufio.NewReader(stdout)); err != nil {
			t.Fatalf("%s: never became ready: %v\n%s", tc.name, err, stderr.String())
		}
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
		if code := exitCode(t, cmd.Wait()); code != 130 || !strings.Contains(stderr.String(), "run cancelled") {
			t.Errorf("%s: exit %d, want 130 with \"run cancelled\" on stderr:\n%s", tc.name, code, stderr.String())
		}
	}
}

func TestHelpListsSharedFlagsAndNoEngine(t *testing.T) {
	code, out := run(t, "-h")
	if code != 0 {
		t.Fatalf("-h exit %d:\n%s", code, out)
	}
	for _, want := range []string{
		"  -role string",
		"  -task-size int",
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

// TestLoopbackRunWritesScores runs a real master and a real worker over
// loopback TCP and checks the -out-scores CSV: the complete ranking, one
// row per voxel, best first, readable by fcma.ReadScores.
func TestLoopbackRunWritesScores(t *testing.T) {
	data, epochs := writeDataset(t)
	out := filepath.Join(t.TempDir(), "scores.csv")
	master := command(t, "-role", "master", "-listen", "127.0.0.1:0", "-workers", "1",
		"-data", data, "-epochs", epochs, "-task-size", "4", "-out-scores", out)
	master.Stderr = os.Stderr
	stdout, err := master.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := master.Start(); err != nil {
		t.Fatal(err)
	}
	defer master.Process.Kill()
	// The master prints the address it bound before it waits for workers.
	lines := bufio.NewReader(stdout)
	first, err := lines.ReadString('\n')
	if err != nil {
		t.Fatalf("master printed %q, then: %v", first, err)
	}
	var addr string
	var workers int
	if _, err := fmt.Sscanf(first, "fcma-cluster: master on %s waiting for %d workers", &addr, &workers); err != nil {
		t.Fatalf("no listen address in %q: %v", first, err)
	}
	if code, wout := run(t, "-role", "worker", "-addr", addr, "-data", data, "-epochs", epochs); code != 0 {
		t.Fatalf("worker exit %d:\n%s", code, wout)
	}
	rest, _ := io.ReadAll(lines)
	if code := exitCode(t, master.Wait()); code != 0 || !strings.Contains(string(rest), "wrote "+out) {
		t.Fatalf("master exit %d:\n%s", code, rest)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	scores, err := fcma.ReadScores(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 16 {
		t.Fatalf("-out-scores holds %d rows, want one per voxel (16)", len(scores))
	}
	seen := make(map[int]bool)
	for i, s := range scores {
		if s.Voxel < 0 || s.Voxel >= 16 || seen[s.Voxel] {
			t.Fatalf("row %d: voxel %d out of range or repeated", i, s.Voxel)
		}
		seen[s.Voxel] = true
		if i > 0 && s.Accuracy > scores[i-1].Accuracy {
			t.Fatalf("row %d (%.6f) ranks above row %d (%.6f)", i, s.Accuracy, i-1, scores[i-1].Accuracy)
		}
	}
}
