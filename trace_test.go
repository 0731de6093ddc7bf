package fcma

import (
	"bytes"
	"context"
	"testing"

	"fcma/internal/obs/trace"
)

// The single-node smoke test of the trace pipeline: a traced SelectVoxels
// run must produce a Chrome-trace JSON that parses and contains at least
// one span per pipeline stage.
func TestSelectVoxelsTraceCoversStages(t *testing.T) {
	d := mustGenerate(t, testSpec())
	tr := NewTracer()
	scores, err := SelectVoxels(d, Config{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != d.Voxels() {
		t.Fatalf("scores = %d, want %d", len(scores), d.Voxels())
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr.Drain()); err != nil {
		t.Fatal(err)
	}
	spans, err := trace.ReadChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("emitted trace does not parse: %v", err)
	}
	count := make(map[string]int)
	for _, s := range spans {
		count[s.Name]++
	}
	for _, stage := range []string{"core/task", "corr/merged", "core/syrk", "core/svm", "svm/cv", "blas/syrk_block"} {
		if count[stage] == 0 {
			t.Fatalf("no %s span in emitted trace (got %v)", stage, count)
		}
	}
	// One svm/cv span per voxel: stage 3 traces at voxel granularity.
	if count["svm/cv"] != d.Voxels() {
		t.Fatalf("svm/cv spans = %d, want one per voxel (%d)", count["svm/cv"], d.Voxels())
	}
}

// Tracing through the in-process cluster: worker spans are shipped back
// and absorbed into the caller's tracer as one run-wide timeline.
func TestSelectVoxelsDistributedTraceMerges(t *testing.T) {
	d := mustGenerate(t, testSpec())
	tr := NewTracer()
	// Twenty two-voxel tasks: with four, a worker scheduled a few
	// milliseconds late found none left and shipped no spans (1 run in 500
	// at GOMAXPROCS=4 before stage 2 was vectorised, more often since).
	scores, err := SelectVoxelsDistributed(d, Config{Trace: tr}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != d.Voxels() {
		t.Fatalf("scores = %d, want %d", len(scores), d.Voxels())
	}
	spans := tr.Drain()
	pids := make(map[int]bool)
	count := make(map[string]int)
	for _, s := range spans {
		pids[s.PID] = true
		count[s.Name]++
		if s.Trace != tr.TraceID() {
			t.Fatalf("span %s carries trace %v, want %v", s.Name, s.Trace, tr.TraceID())
		}
	}
	if !pids[0] || len(pids) < 3 {
		t.Fatalf("merged trace covers pids %v, want master + 2 workers", pids)
	}
	for _, name := range []string{"cluster/run", "cluster/task", "worker/task", "core/task"} {
		if count[name] == 0 {
			t.Fatalf("no %s span in merged trace (got %v)", name, count)
		}
	}
}

// Config.Trace nil must keep the hot path allocation-free — the same
// guarantee TestDisabledStartSpanZeroAllocs enforces at the trace layer,
// checked here through the public API's context plumbing.
func TestNilTraceConfigZeroAllocs(t *testing.T) {
	ctx := Config{}.traceCtx(context.Background())
	allocs := testing.AllocsPerRun(100, func() {
		_, sp := trace.StartSpan(ctx, "blas/block")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("nil-trace config allocates %v per span on the hot path", allocs)
	}
}
