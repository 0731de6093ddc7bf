package cluster

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fcma/internal/core"
	"fcma/internal/mpi"
	"fcma/internal/obs"
	"fcma/internal/obs/trace"
)

// rendezvous wraps a rank's worker so that its first task does not start
// until every rank holds one: however late the scheduler starts a rank's
// goroutine, and however short a task is, each rank then processes at
// least one task — as long as the run has a task per rank, and no master
// deadline to trip.
type rendezvous struct {
	inner   *core.Worker
	first   sync.Once
	arrived *sync.WaitGroup
}

func (r *rendezvous) Process(t core.Task) ([]core.VoxelScore, error) {
	return r.ProcessContext(context.Background(), t)
}

func (r *rendezvous) ProcessContext(ctx context.Context, t core.Task) ([]core.VoxelScore, error) {
	r.first.Do(func() {
		r.arrived.Done()
		r.arrived.Wait()
	})
	return r.inner.ProcessContext(ctx, t)
}

// TestClusterTraceMergesAcrossRanks is the acceptance test for the
// distributed timeline: a 2-worker in-process run with tracing on must
// yield one merged span set where every worker task span carries the
// master's trace id and parents under the master's matching cluster/task
// span, with pipeline stage spans nested below. Each rank records to its
// own registry, whose snapshots ride the same reports as its spans, and
// every interval's span count equals its histogram's observation count.
func TestClusterTraceMergesAcrossRanks(t *testing.T) {
	st := testStack(t)
	comm, err := mpi.NewLocalComm(3, 32)
	if err != nil {
		t.Fatal(err)
	}
	masterTr := trace.New(0)
	cm := &ClusterMetrics{}
	var wg, arrived sync.WaitGroup
	arrived.Add(2)
	for r := 1; r <= 2; r++ {
		cfg := core.Optimized()
		cfg.Obs = obs.NewRegistry()
		w, err := core.NewWorker(cfg, st, nil)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			err := RunWorkerCtx(context.Background(), comm.Rank(r), &rendezvous{inner: w, arrived: &arrived},
				WorkerOptions{Trace: trace.New(r), Obs: cfg.Obs})
			if err != nil {
				t.Error(err)
			}
		}(r)
	}
	scores, err := RunMasterCtx(context.Background(), comm.Rank(0), st.N, 8,
		MasterOptions{Trace: masterTr, Metrics: cm})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if len(scores) != st.N {
		t.Fatalf("scores = %d, want %d", len(scores), st.N)
	}

	merged := masterTr.Drain()
	runID := masterTr.TraceID()
	byID := make(map[trace.SpanID]trace.Span, len(merged))
	byName := make(map[string][]trace.Span)
	for _, s := range merged {
		byID[s.ID] = s
		byName[s.Name] = append(byName[s.Name], s)
	}
	if len(byName["cluster/run"]) != 1 {
		t.Fatalf("got %d cluster/run spans, want 1", len(byName["cluster/run"]))
	}
	if len(byName["cluster/task"]) == 0 || len(byName["worker/task"]) == 0 {
		t.Fatalf("missing task spans: %d cluster/task, %d worker/task",
			len(byName["cluster/task"]), len(byName["worker/task"]))
	}
	// Every span of the merged timeline shares the run's trace id.
	for _, s := range merged {
		if s.Trace != runID {
			t.Fatalf("span %s carries trace %v, want run trace %v", s.Name, s.Trace, runID)
		}
	}
	// Worker task spans parent under master task spans on other pids.
	workerPids := make(map[int]bool)
	for _, ws := range byName["worker/task"] {
		parent, ok := byID[ws.Parent]
		if !ok {
			t.Fatalf("worker/task span (v0=%s) has unknown parent %v", ws.Attr("v0"), ws.Parent)
		}
		if parent.Name != "cluster/task" {
			t.Fatalf("worker/task parents under %q, want cluster/task", parent.Name)
		}
		if parent.PID != 0 {
			t.Fatalf("master task span recorded on pid %d, want 0", parent.PID)
		}
		if ws.PID == 0 {
			t.Fatal("worker task span recorded on master pid")
		}
		if ws.Attr("v0") != parent.Attr("v0") {
			t.Fatalf("task mismatch: worker v0=%s under master v0=%s", ws.Attr("v0"), parent.Attr("v0"))
		}
		workerPids[ws.PID] = true
	}
	if len(workerPids) != 2 {
		t.Fatalf("worker spans came from %d ranks, want 2", len(workerPids))
	}
	// Pipeline stage spans arrived from the workers and nest (transitively)
	// under worker/task spans on the same rank.
	for _, stage := range []string{"core/task", "corr/fused", "corr/fused_block", "core/svm", "svm/cv"} {
		if len(byName[stage]) == 0 {
			t.Fatalf("no %s spans in merged timeline (names: %v)", stage, names(byName))
		}
	}
	for _, cs := range byName["core/task"] {
		parent, ok := byID[cs.Parent]
		if !ok || parent.Name != "worker/task" {
			t.Fatalf("core/task parents under %q (found=%v), want worker/task", parent.Name, ok)
		}
	}
	// One clock per interval: the spans and the histograms the reports
	// carried count the same intervals, and stage 3 has one per voxel.
	hists := cm.Merged().Hists
	for _, name := range []string{"worker/task", "core/task", "corr/fused", "core/svm", "svm/cv"} {
		series := "stage_" + strings.ReplaceAll(name, "/", "_") + "_seconds"
		if got := hists[series].Count; got != uint64(len(byName[name])) {
			t.Errorf("%s: %d spans but %s counts %d", name, len(byName[name]), series, got)
		}
	}
	if n := len(byName["svm/cv"]); n < st.N {
		t.Errorf("%d svm/cv spans, want at least one per voxel (%d)", n, st.N)
	}

	// The merged set renders to Chrome JSON with one pid lane per rank.
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, merged); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rank 0 (master)", "rank 1", "rank 2"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("chrome export missing %q lane", want)
		}
	}
}

func names(byName map[string][]trace.Span) []string {
	var out []string
	for n := range byName {
		out = append(out, n)
	}
	return out
}

// recvTap hands every message its transport receives to seen.
type recvTap struct {
	mpi.Transport
	seen func(mpi.Message)
}

func (r *recvTap) Recv() (mpi.Message, error) {
	msg, err := r.Transport.Recv()
	if err == nil {
		r.seen(msg)
	}
	return msg, err
}

// Tracing off at the master must leave the protocol bit-identical: task
// messages carry zero span ids and no report carries a span. The worker
// has a tracer, as fcma-cluster's worker always does, and records nothing
// into it: a task without the master's span context records no span.
func TestClusterTraceDisabledShipsNothing(t *testing.T) {
	st := testStack(t)
	comm, err := mpi.NewLocalComm(2, 32)
	if err != nil {
		t.Fatal(err)
	}
	var tasks, reports atomic.Int64
	worker := &recvTap{Transport: comm.Rank(1), seen: func(msg mpi.Message) {
		var tm taskMsg
		if msg.Tag == mpi.TagTask && decode(msg.Body, &tm) == nil {
			tasks.Add(1)
			if tm.Trace != 0 || tm.Span != 0 {
				t.Errorf("untraced master sent span context %x/%x", tm.Trace, tm.Span)
			}
		}
	}}
	master := &recvTap{Transport: comm.Rank(0), seen: func(msg mpi.Message) {
		var rep report
		if msg.Tag == mpi.TagResult && decode(msg.Body, &rep) == nil {
			reports.Add(1)
			if len(rep.Spans) != 0 {
				t.Errorf("tracing disabled but a report carries %d spans", len(rep.Spans))
			}
		}
	}}
	wtr := trace.New(0)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w, err := core.NewWorker(core.Optimized(), st, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := RunWorkerCtx(context.Background(), worker, w, WorkerOptions{Trace: wtr}); err != nil {
			t.Error(err)
		}
	}()
	if _, err := RunMasterCtx(context.Background(), master, st.N, 8, MasterOptions{}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if tasks.Load() == 0 || reports.Load() == 0 {
		t.Fatalf("saw %d tasks and %d reports, want some of each", tasks.Load(), reports.Load())
	}
	if spans := wtr.Drain(); len(spans) != 0 {
		t.Errorf("the worker's tracer holds %d spans under an untraced master", len(spans))
	}
}
