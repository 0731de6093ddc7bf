package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"fcma/internal/obs/trace"
)

// TestSmokeAllWorkloads runs every workload at toy size, untraced and
// traced, so plain `go test ./...` keeps the benchmark compiling against
// the layers it calls and keeps its output checks passing.
func TestSmokeAllWorkloads(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e := &env{seed: 3, p: min(runtime.NumCPU(), 4), toy: true, dir: t.TempDir()}

			res, notes, err := runUntraced(ctx, w, e, 200*time.Millisecond)
			if err != nil {
				t.Fatalf("untraced run: %v (%v)", err, notes)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("untraced run: correct=%v failed=%d attempted=%d: %v", res.Correct, res.Failed, res.Attempted, notes)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("untraced run reports %d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, name := range endToEnd {
				if m, ok := res.Metrics[name]; !ok || !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v (reported: %v), want > 0", name, m.Value, ok)
				}
			}

			tracePath := filepath.Join(e.dir, "trace.json")
			res, notes, err = runTraced(ctx, w, e, 500*time.Millisecond, tracePath)
			if err != nil {
				t.Fatalf("traced run: %v (%v)", err, notes)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced run: correct=%v failed=%d: %v", res.Correct, res.Failed, notes)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("traced run reports %d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			for _, name := range []string{"corr.pipeline_s", "blas.batchsyrk_s", "svm.cv_s", "core.task_s", "corr.gemm_calls", "svm.iters_per_voxel"} {
				if !(res.Metrics[name].Value > 0) {
					t.Errorf("per-layer metric %s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}
			f, err := os.Open(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			spans, err := trace.ReadChrome(f)
			if err != nil || len(spans) == 0 {
				t.Errorf("span file: %d spans, err %v", len(spans), err)
			}
		})
	}
}

// TestFailedCheckFailsTheOp makes sure a check that does not hold marks the
// op failed instead of being logged: with a recall floor no ranking can
// reach, every op must fail and the run must say it is not correct.
func TestFailedCheckFailsTheOp(t *testing.T) {
	w, _ := findWorkload("facescene_local")
	w.recallFloor = 1.01
	e := &env{seed: 3, p: 1, toy: true, dir: t.TempDir()}
	res, _, err := runUntraced(context.Background(), w, e, 50*time.Millisecond)
	if err == nil {
		t.Fatalf("a run whose every op fails still reported metrics: %+v", res)
	}
	if !strings.Contains(err.Error(), "no op completed") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric and
// workload tables of the code in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	e := &env{seed: 1, p: 1, toy: true, dir: t.TempDir()}
	w, _ := findWorkload("facescene_local")
	res, _, err := runUntraced(context.Background(), w, e, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(res.Metrics) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, %d reported", len(spec.EndToEnd), len(res.Metrics))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s [%s]: the run reports %v (present: %v)", m.Name, m.Unit, got.Unit, ok)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if spec.PerLayer[i].Name != m.name || spec.PerLayer[i].Unit != m.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %s [%s]", i, spec.PerLayer[i], m.name, m.unit)
		}
	}
}

func TestCompareSets(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"op_p50_s","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, p50, calls float64) string {
		path := filepath.Join(dir, name)
		entry := setEntry{Result: result{Correct: true, Attempted: 5, Metrics: map[string]metric{
			"op_p50_s":        {p50, "s"},
			"corr.gemm_calls": {calls, "count/op"},
			"corr.pipeline_s": {p50 / 2, "s/op"},
		}}}
		if err := mergeResult(path, setKey("facescene_local", 0), entry); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 1.00, 3840)
	for _, c := range []struct {
		name  string
		b     string
		want  int
		marks string
	}{
		{"within the bound", write("b1.json", 1.08, 3840), 0, "the two sets agree"},
		{"past the bound", write("b2.json", 1.12, 3840), 1, "DISAGREE (bound 0.10)"},
		{"a count that moved", write("b3.json", 1.00, 3841), 1, "count must repeat"},
	} {
		var out, errOut bytes.Buffer
		if got := compareSets(&out, &errOut, spec, a, c.b); got != c.want || !strings.Contains(out.String(), c.marks) {
			t.Errorf("%s: exit %d, want %d; output:\n%s%s", c.name, got, c.want, out.String(), errOut.String())
		}
	}
}
