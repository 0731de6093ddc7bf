//go:build chaossoak

package cluster

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"fcma/internal/chaos"
	"fcma/internal/core"
	"fcma/internal/corr"
	"fcma/internal/fmri"
	"fcma/internal/mpi"
	"fcma/internal/obs"
	"fcma/internal/obs/trace"
)

// TestChaosSoakMasterKills is the long-form kill soak behind the chaossoak
// build tag (`make chaos-soak`): a TCP cluster whose master is crashed ten
// times across a run — its transport cut at chosen cumulative result
// counts, under transport faults and delays and filesystem faults on
// every journal write — and resumed from its journal each time, with the
// full bit-exactness and zero-recompute contract asserted at the end.
// Bounded to well under two minutes: the dataset is small and each
// incarnation is cut within a few tasks.
//
// When FCMA_CHAOS_ARTIFACTS names a directory, the test deposits the final
// journal and the merged master-side Chrome trace there so CI can upload
// them from failed runs.
func TestChaosSoakMasterKills(t *testing.T) {
	d, err := fmri.Generate(fmri.Spec{
		Name:             "kill-soak",
		Voxels:           64,
		Subjects:         3,
		EpochsPerSubject: 6,
		EpochLen:         12,
		RestLen:          2,
		SignalVoxels:     8,
		Coupling:         0.8,
		Seed:             29,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := corr.BuildEpochStackContext(context.Background(), d, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mustWorker(t, st).ProcessContext(context.Background(), core.Task{V0: 0, V: st.N})
	if err != nil {
		t.Fatal(err)
	}
	const taskSize = 2 // 32 tasks: room for ten kills with work between them

	plan, err := chaos.NewPlan(chaos.Config{
		Seed: 83,
		FS:   chaos.FSConfig{TornWrite: 0.03, ENOSPC: 0.01, SlowSync: 0.3, RenameFail: 0.05, MaxDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	cuts := &masterCuts{at: []int{2, 5, 8, 11, 14, 17, 20, 23, 26, 29}}

	dir := t.TempDir()
	jpath := filepath.Join(dir, "soak.jnl")
	var allSpans []trace.Span
	t.Cleanup(func() { depositArtifacts(t, jpath, allSpans) })

	h := newRecoveryHarness(t, st)
	first, err := mpi.ListenMaster("127.0.0.1:0", 4)
	if err != nil {
		t.Fatal(err)
	}
	addr := first.Addr()
	h.startWorker(addr, 0)
	h.startWorker(addr, 5000)
	h.startWorker(addr, 6000)

	var (
		scores     []core.VoxelScore
		crashes    int
		lastErr    error
		totalSkips uint64
	)
	for incarnation := 0; ; incarnation++ {
		if incarnation >= 200 {
			t.Fatalf("master did not finish within 200 incarnations; last error: %v", lastErr)
		}
		master := first
		if master == nil {
			master, err = mpi.ListenMaster(addr, 4)
			if err != nil {
				t.Fatal(err)
			}
		}
		first = nil
		jn, err := OpenJournal(plan.FS(chaos.OS()), jpath, nil)
		if err != nil {
			master.Close()
			crashes++
			lastErr = err
			continue
		}
		frozen := h.freeze(jn, st.N, taskSize)
		if err := master.AcceptCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		delayed, err := mpi.NewChaosTransport(master, mpi.ChaosConfig{
			Seed: 83 + int64(incarnation), Delay: 0.10, MaxDelay: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		tracer := trace.New(0)
		scores, err = RunMasterCtx(context.Background(), cuts.wrap(delayed), st.N, taskSize, MasterOptions{
			Journal:          jn,
			Trace:            tracer,
			HeartbeatTimeout: time.Second,
			TaskDeadline:     500 * time.Millisecond,
			TaskRetries:      10000,
			WorkerErrorLimit: 10000,
			Obs:              reg,
		})
		allSpans = append(allSpans, tracer.Drain()...)
		if got := reg.Counter("cluster_tasks_skipped_journaled_total").Value(); got != uint64(len(frozen)) {
			t.Fatalf("incarnation %d: skipped %d journaled tasks, want %d", incarnation, got, len(frozen))
		}
		totalSkips += uint64(len(frozen))
		master.Close()
		jn.Close()
		if err == nil {
			break
		}
		crashes++
		lastErr = err
		if !errors.Is(err, errMasterCut) && !errors.Is(err, syscall.EIO) && !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("incarnation %d died with unexpected error: %v", incarnation, err)
		}
	}
	h.done.Store(true)
	h.wg.Wait()

	if cuts.cuts() != 10 {
		t.Fatalf("%d transport cuts fired, want all 10", cuts.cuts())
	}
	if crashes < 10 {
		t.Fatalf("master crashed %d times, want >= 10", crashes)
	}
	if totalSkips == 0 {
		t.Fatal("no incarnation resumed journaled state; the recovery path never ran")
	}
	if v := h.violations.Load(); v != 0 {
		t.Fatalf("%d journaled-complete voxel ranges were recomputed", v)
	}
	if len(scores) != st.N {
		t.Fatalf("final run scored %d of %d voxels", len(scores), st.N)
	}
	for i, s := range scores {
		if s != ref[i] {
			t.Fatalf("voxel %d: %+v, want bit-exact %+v", i, s, ref[i])
		}
	}
	t.Logf("soak: %d crashes (%d transport cuts), %d cumulative journal-skipped tasks, %d spans collected",
		crashes, cuts.cuts(), totalSkips, len(allSpans))
}

// depositArtifacts copies the journal and writes the merged Chrome trace
// into $FCMA_CHAOS_ARTIFACTS for CI to upload from failed runs.
func depositArtifacts(t *testing.T, jpath string, spans []trace.Span) {
	dir := os.Getenv("FCMA_CHAOS_ARTIFACTS")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("chaos artifacts: %v", err)
		return
	}
	if src, err := os.Open(jpath); err == nil {
		dst, err := os.Create(filepath.Join(dir, "soak.jnl"))
		if err == nil {
			_, _ = io.Copy(dst, src)
			dst.Close()
		}
		src.Close()
	}
	if f, err := os.Create(filepath.Join(dir, "soak-trace.json")); err == nil {
		if err := trace.WriteChrome(f, spans); err != nil {
			t.Logf("chaos artifacts: writing trace: %v", err)
		}
		f.Close()
	}
	t.Logf("chaos artifacts deposited in %s", dir)
}
