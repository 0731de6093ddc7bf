package fcma

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"

	"fcma/internal/corr"
	"fcma/internal/obs/trace"
)

// The single-node smoke test of the trace pipeline: a traced SelectVoxels
// run must produce a Chrome-trace JSON that parses and contains at least
// one span per pipeline stage, and time each interval once: its span count
// is its histogram's observation count.
func TestSelectVoxelsTraceCoversStages(t *testing.T) {
	d := mustGenerate(t, testSpec())
	tr, reg := NewTracer(), NewMetrics()
	scores, err := SelectVoxels(d, Config{Trace: tr, Workers: 2, Metrics: reg})
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
	for _, stage := range []string{"core/task", "corr/fused", "corr/fused_block", "core/svm", "svm/cv"} {
		if count[stage] == 0 {
			t.Fatalf("no %s span in emitted trace (got %v)", stage, count)
		}
	}
	// One name per stage: the fused stage is one span with one child per
	// voxel block, and nothing of the stages it replaced — least of all a
	// span per 96-column syrk slice — is emitted beside it.
	if count["corr/fused"] != 1 || count["corr/fused_block"] != (d.Voxels()+corr.DefaultVoxBlock-1)/corr.DefaultVoxBlock {
		t.Fatalf("got %d corr/fused and %d corr/fused_block spans for %d voxels, want 1 and one per %d-voxel block",
			count["corr/fused"], count["corr/fused_block"], d.Voxels(), corr.DefaultVoxBlock)
	}
	for _, gone := range []string{"corr/merged", "core/syrk", "blas/syrk_block"} {
		if count[gone] != 0 {
			t.Fatalf("trace still carries %d %s spans (got %v)", count[gone], gone, count)
		}
	}
	// One svm/cv span per voxel: stage 3 traces at voxel granularity.
	if count["svm/cv"] != d.Voxels() {
		t.Fatalf("svm/cv spans = %d, want one per voxel (%d)", count["svm/cv"], d.Voxels())
	}
	hists := reg.Snapshot().Hists
	for _, name := range []string{"core/task", "corr/fused", "core/svm", "svm/cv"} {
		series := "stage_" + strings.ReplaceAll(name, "/", "_") + "_seconds"
		if got := hists[series].Count; got != uint64(count[name]) {
			t.Errorf("%s: %d spans but %s counts %d", name, count[name], series, got)
		}
	}
}

// Tracing through the in-process cluster: worker spans are shipped back
// and absorbed into the caller's tracer as one run-wide timeline.
func TestSelectVoxelsDistributedTraceMerges(t *testing.T) {
	d := mustGenerate(t, testSpec())
	tr := NewTracer()
	scores, err := SelectVoxelsDistributed(d, Config{Trace: tr}, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != d.Voxels() {
		t.Fatalf("scores = %d, want %d", len(scores), d.Voxels())
	}
	spans := tr.Drain()
	// shipped[pid] counts the worker/task spans rank pid sent back; served
	// the ranks whose result the master took (its cluster/task spans).
	shipped := make(map[int]int)
	served := make(map[string]bool)
	count := make(map[string]int)
	for _, s := range spans {
		count[s.Name]++
		if s.Trace != tr.TraceID() {
			t.Fatalf("span %s carries trace %v, want %v", s.Name, s.Trace, tr.TraceID())
		}
		switch {
		case s.Name == "worker/task":
			shipped[s.PID]++
		case s.Name == "cluster/task" && s.Attr("outcome") == "ok":
			served[s.Attr("rank")] = true
			if s.PID != 0 {
				t.Fatalf("master task span recorded on pid %d, want 0", s.PID)
			}
		}
	}
	// Which ranks get work is the scheduler's business (a rank that starts
	// late may find the queue empty); that every rank the master took a
	// result from has its spans in the caller's tracer is this test's.
	if len(served) == 0 {
		t.Fatalf("no task completed in the merged trace (got %v)", count)
	}
	for rank := range served {
		pid, err := strconv.Atoi(rank)
		if err != nil || pid == 0 || shipped[pid] == 0 {
			t.Fatalf("rank %s returned results but shipped no worker/task span (by pid: %v)", rank, shipped)
		}
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
