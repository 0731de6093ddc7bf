package fcma

import (
	"context"
	"testing"

	"fcma/internal/core"
	"fcma/internal/corr"
	"fcma/internal/fmri"
	"fcma/internal/rt"
)

func streamDataset(t testing.TB) *fmri.Dataset {
	t.Helper()
	d, err := fmri.Generate(fmri.Spec{
		Name: "selector-test", Voxels: 48, Subjects: 1, EpochsPerSubject: 16,
		EpochLen: 12, RestLen: 2, SignalVoxels: 8, Coupling: 0.85, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// feedScanned streams every epoch of d through the scanner and the
// assembler into the selector, stopping after upTo epochs.
func feedScanned(t testing.TB, d *fmri.Dataset, sel *StreamingSelector, upTo int) {
	t.Helper()
	asm, err := rt.NewAssembler(d.Epochs, d.Voxels())
	if err != nil {
		t.Fatal(err)
	}
	fed := 0
	for f := range rt.NewScanner(d, 0).StreamContext(context.Background()) {
		wins, err := asm.Feed(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range wins {
			if fed >= upTo {
				continue
			}
			if err := sel.FeedEpoch(w.Data, w.Epoch.Label); err != nil {
				t.Fatal(err)
			}
			fed++
		}
	}
}

// plantedHits counts the planted voxels among the first k of a ranking.
func plantedHits(d *fmri.Dataset, scores []VoxelScore, k int) int {
	planted := map[int]bool{}
	for _, v := range d.SignalVoxels {
		planted[v] = true
	}
	hits := 0
	for _, s := range scores[:k] {
		if planted[s.Voxel] {
			hits++
		}
	}
	return hits
}

// A whole session streamed in epoch by epoch ranks the brain exactly as a
// batch selection over the same subject's stack does, and finds the
// planted voxels.
func TestStreamingSelectorMatchesBatch(t *testing.T) {
	d := streamDataset(t)
	sel, err := NewStreamingSelector(Config{}, d.Voxels(), 12)
	if err != nil {
		t.Fatal(err)
	}
	feedScanned(t, d, sel, len(d.Epochs))
	if sel.Epochs() != len(d.Epochs) {
		t.Fatalf("accumulated %d of %d epochs", sel.Epochs(), len(d.Epochs))
	}
	streamed, err := sel.SelectContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	stack, err := corr.BuildEpochStackContext(context.Background(), d, 0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := core.NewWorker(Config{}.coreConfig(), stack, nil)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := w.ProcessContext(context.Background(), core.Task{V0: 0, V: stack.N})
	if err != nil {
		t.Fatal(err)
	}
	batch := core.TopVoxels(scores, 0)
	if len(streamed) != len(batch) {
		t.Fatalf("streamed ranking has %d voxels, batch %d", len(streamed), len(batch))
	}
	for i := range batch {
		if streamed[i] != batch[i] {
			t.Fatalf("rank %d: streamed %+v, batch %+v", i, streamed[i], batch[i])
		}
	}
	if hits := plantedHits(d, streamed, 8); hits < 6 {
		t.Fatalf("streaming selection found %d of top 8 planted", hits)
	}
}

func TestStreamingSelectorImprovesWithData(t *testing.T) {
	d := streamDataset(t)
	hitRate := func(upTo int) float64 {
		sel, err := NewStreamingSelector(Config{}, d.Voxels(), 12)
		if err != nil {
			t.Fatal(err)
		}
		feedScanned(t, d, sel, upTo)
		scores, err := sel.SelectContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return float64(plantedHits(d, scores, 8)) / 8
	}
	early := hitRate(4)
	late := hitRate(16)
	if late < early {
		t.Fatalf("selection should not degrade with more data: %v -> %v", early, late)
	}
	if late < 0.75 {
		t.Fatalf("full-session hit rate %v too low", late)
	}
}

// Selection waits for two epochs of each condition.
func TestStreamingSelectorGating(t *testing.T) {
	d := streamDataset(t)
	sel, err := NewStreamingSelector(Config{}, d.Voxels(), 12)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Ready() {
		t.Fatal("empty selector ready")
	}
	if _, err := sel.Select(); err == nil {
		t.Fatal("empty selection succeeded")
	}
	feedScanned(t, d, sel, 3) // 2 of one label, 1 of the other
	if sel.Ready() {
		t.Fatal("unbalanced selector ready")
	}
	if _, err := sel.Select(); err == nil {
		t.Fatal("unbalanced selection succeeded")
	}
	sel2, err := NewStreamingSelector(Config{}, d.Voxels(), 12)
	if err != nil {
		t.Fatal(err)
	}
	feedScanned(t, d, sel2, 4)
	if !sel2.Ready() {
		t.Fatal("balanced selector not ready")
	}
}
