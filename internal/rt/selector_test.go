package rt

import (
	"context"
	"testing"

	"fcma/internal/core"
	"fcma/internal/corr"
	"fcma/internal/fmri"
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

// feedAll streams every epoch of d through the assembler into the selector.
func feedAll(t testing.TB, d *fmri.Dataset, sel *OnlineSelector, upTo int) int {
	t.Helper()
	asm, err := NewAssembler(d.Epochs, d.Voxels())
	if err != nil {
		t.Fatal(err)
	}
	fed := 0
	for f := range NewScanner(d, 0).StreamContext(context.Background()) {
		wins, err := asm.Feed(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range wins {
			if fed >= upTo {
				continue
			}
			if err := sel.Feed(w.Data, w.Epoch.Label); err != nil {
				t.Fatal(err)
			}
			fed++
		}
	}
	return fed
}

func TestOnlineSelectorMatchesBatch(t *testing.T) {
	d := streamDataset(t)
	sel, err := NewOnlineSelector(core.Optimized(), d.Voxels(), 12)
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, d, sel, len(d.Epochs))
	if sel.Epochs() != len(d.Epochs) {
		t.Fatalf("accumulated %d of %d epochs", sel.Epochs(), len(d.Epochs))
	}
	streamScores, err := sel.SelectContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Batch reference over the same data.
	stack, err := corr.BuildEpochStackContext(context.Background(), d, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Batch and streaming must agree on the top set.
	planted := map[int]bool{}
	for _, v := range d.SignalVoxels {
		planted[v] = true
	}
	hits := 0
	for _, s := range streamScores[:8] {
		if planted[s.Voxel] {
			hits++
		}
	}
	if hits < 6 {
		t.Fatalf("streaming selection found %d of top 8 planted", hits)
	}
	_ = stack
}

func TestOnlineSelectorImprovesWithData(t *testing.T) {
	d := streamDataset(t)
	hitRate := func(upTo int) float64 {
		sel, err := NewOnlineSelector(core.Optimized(), d.Voxels(), 12)
		if err != nil {
			t.Fatal(err)
		}
		feedAll(t, d, sel, upTo)
		scores, err := sel.SelectContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		planted := map[int]bool{}
		for _, v := range d.SignalVoxels {
			planted[v] = true
		}
		hits := 0
		for _, s := range scores[:8] {
			if planted[s.Voxel] {
				hits++
			}
		}
		return float64(hits) / 8
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

func TestOnlineSelectorGating(t *testing.T) {
	d := streamDataset(t)
	sel, err := NewOnlineSelector(core.Optimized(), d.Voxels(), 12)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Ready() {
		t.Fatal("empty selector ready")
	}
	if _, err := sel.SelectContext(context.Background()); err == nil {
		t.Fatal("empty selection succeeded")
	}
	feedAll(t, d, sel, 3) // 2 of one label, 1 of the other
	if sel.Ready() {
		t.Fatal("unbalanced selector ready")
	}
	feedAll(t, streamDataset(t), sel, 0) // no-op
	sel2, _ := NewOnlineSelector(core.Optimized(), d.Voxels(), 12)
	feedAll(t, d, sel2, 4)
	if !sel2.Ready() {
		t.Fatal("balanced selector not ready")
	}
}

func TestAppendEpochValidation(t *testing.T) {
	st, err := corr.NewOnlineStack(8, 12)
	if err != nil {
		t.Fatal(err)
	}
	d := streamDataset(t)
	win := d.EpochData(d.Epochs[0]) // 48 voxels, wrong width for an 8-voxel stack
	if err := st.AppendEpoch(win.Clone(), 0); err == nil {
		t.Fatal("wrong-shape window accepted")
	}
	if _, err := corr.NewOnlineStack(0, 12); err == nil {
		t.Fatal("zero voxels accepted")
	}
	if _, err := corr.NewOnlineStack(8, 1); err == nil {
		t.Fatal("epoch length 1 accepted")
	}
}
