package baseline

import (
	"context"
	"errors"
	"testing"

	"fcma/internal/core"
	"fcma/internal/obs"
)

// The agreement of this task with core.Worker — the Fig. 9 pair — is
// core's TestBaselineAndOptimizedAgreeOnRanking (an external test there,
// run once per kernel path); these are the task's own edges.
func TestWorkerScoresSubrangeOnSeparatedStages(t *testing.T) {
	st := testStack(t, 24, 3, 4)
	reg := obs.NewRegistry()
	w, err := NewWorker(st, reg)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := w.ProcessContext(context.Background(), core.Task{V0: 4, V: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 8 {
		t.Fatalf("scores = %d, want 8", len(scores))
	}
	for i, s := range scores {
		if s.Voxel != 4+i || s.Accuracy < 0 || s.Accuracy > 1 {
			t.Fatalf("score %d = %+v", i, s)
		}
	}
	// fcma-bench native-ledger reads the separated stages' timings from
	// the registry handed in.
	hists := reg.Snapshot().Hists
	for _, name := range []string{"stage_corr_correlate_seconds", "stage_corr_normalize_seconds"} {
		if hists[name].Count == 0 {
			t.Errorf("registry has no %s observation", name)
		}
	}
	if _, ok := hists["stage_corr_merged_seconds"]; ok {
		t.Error("baseline task ran the merged stage")
	}
}

func TestWorkerRejectsBadInput(t *testing.T) {
	if _, err := NewWorker(nil, nil); err == nil {
		t.Fatal("nil stack accepted")
	}
	w, err := NewWorker(testStack(t, 16, 2, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range []core.Task{{V0: 0, V: 0}, {V0: -1, V: 4}, {V0: 12, V: 8}} {
		if _, err := w.ProcessContext(context.Background(), task); err == nil {
			t.Errorf("task %+v accepted", task)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.ProcessContext(ctx, core.Task{V0: 0, V: 16}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled task: %v, want context.Canceled", err)
	}
}
