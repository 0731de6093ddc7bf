// Command benchmark is the repo benchmark: four FCMA workloads, each driven
// in a closed loop for a fixed time, every output checked, and either the
// end-to-end metrics (-trace 0) or the per-layer ledger (-trace 1) printed
// as one JSON object on the last line of standard output. BENCHMARK.json at
// the repository root records the command and the metrics; README.md in
// this directory defines them.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// endToEnd names the end-to-end metrics in report order.
var endToEnd = []string{"setup_s", "voxels_per_s", "op_p50_s", "planted_recall"}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	secs := fs.Float64("seconds", 20, "length of the measured interval")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	out := fs.String("out", "benchmark/out", "directory for span files and scratch state")
	resultFile := fs.String("result", "", "also merge this run's result into the result-set `file` (for -compare)")
	compare := fs.Bool("compare", false, "compare two result-set files given as arguments instead of running; bounds come from ./BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result-set files")
			return 2
		}
		return compareSets(stdout, stderr, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
	}
	w, ok := findWorkload(*name)
	if !ok || fs.NArg() != 0 || *secs <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "benchmark: need -workload (one of %s), -seconds > 0 and -trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*out, "scratch-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	e := &env{seed: *seed, p: min(runtime.NumCPU(), 4), dir: scratch}
	d := time.Duration(*secs * float64(time.Second))
	fp := fingerprint(e.p)
	fmt.Fprintf(stderr, "%s (%s)\n  seed=%d seconds=%g trace=%d | %s\n", w.name, w.why, *seed, *secs, *traced, fp)

	var res *result
	var notes []string
	if *traced == 1 {
		res, notes, err = runTraced(ctx, w, e, d, filepath.Join(*out, "trace-"+w.name+".json"))
	} else {
		res, notes, err = runUntraced(ctx, w, e, d)
	}
	for _, n := range notes {
		fmt.Fprintln(stderr, "  note:", n)
	}
	if err != nil {
		// A check that could not run is not a result.
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printTable(stderr, res)
	if *resultFile != "" {
		if err := mergeResult(*resultFile, setKey(w.name, *traced), setEntry{Seed: *seed, Seconds: *secs, Fingerprint: fp, Result: *res}); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// fingerprint describes the machine the numbers were taken on.
func fingerprint(p int) string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d P=%d %s %s/%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), p, runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printTable writes the run's metrics for a human, in report order.
func printTable(w io.Writer, res *result) {
	fmt.Fprintf(w, "  ops attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	names := append([]string(nil), endToEnd...)
	for _, m := range perLayer {
		names = append(names, m.name)
	}
	for _, n := range names {
		if m, ok := res.Metrics[n]; ok {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
		}
	}
}

// setEntry is one run inside a result-set file.
type setEntry struct {
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Fingerprint string  `json:"fingerprint"`
	Result      result  `json:"result"`
}

func setKey(workload string, traced int) string {
	return fmt.Sprintf("%s trace=%d", workload, traced)
}

func readSet(path string) (map[string]setEntry, error) {
	set := make(map[string]setEntry)
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return set, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// mergeResult adds one run to a result-set file, creating it if need be.
func mergeResult(path, key string, entry setEntry) error {
	set, err := readSet(path)
	if err != nil {
		return err
	}
	set[key] = entry
	raw, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
