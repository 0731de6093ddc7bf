package fcma

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

func robustData(t *testing.T, voxels int) *Data {
	t.Helper()
	d, err := Generate(Spec{
		Name:             "robust-test",
		Voxels:           voxels,
		Subjects:         3,
		EpochsPerSubject: 4,
		EpochLen:         12,
		RestLen:          2,
		SignalVoxels:     8,
		Coupling:         0.8,
		Seed:             11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSelectVoxelsContextPreCancelled(t *testing.T) {
	d := robustData(t, 32)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SelectVoxelsContext(ctx, d, Config{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSelectVoxelsContextDeadline(t *testing.T) {
	// The deadline has already passed when the call starts, so the test
	// races no timer and holds however fast a task becomes: the first
	// checkpoint must see it, surface DeadlineExceeded, and score nothing.
	d := robustData(t, 300)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	m := NewMetrics()
	_, err := SelectVoxelsContext(ctx, d, Config{Metrics: m})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if n := m.Counter("core_voxels_scored_total").Value(); n != 0 {
		t.Fatalf("%d voxels scored after the deadline", n)
	}
}

func TestSelectVoxelsDistributedContextPreCancelled(t *testing.T) {
	d := robustData(t, 32)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SelectVoxelsDistributedContext(ctx, d, Config{}, 2, 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// corruptData plants a NaN sample in voxel 3 and makes voxel 7 constant.
func corruptData(t *testing.T) *Data {
	d := robustData(t, 32)
	d.ds.Data.Row(3)[5] = float32(math.NaN())
	row := d.ds.Data.Row(7)
	for i := range row {
		row[i] = 2.5
	}
	return d
}

func TestSanitizeReject(t *testing.T) {
	d := corruptData(t)
	_, err := SelectVoxels(d, Config{Sanitize: SanitizeReject})
	if err == nil {
		t.Fatal("defective dataset accepted under SanitizeReject")
	}
	if !strings.Contains(err.Error(), "3") || !strings.Contains(err.Error(), "7") {
		t.Fatalf("rejection does not name the defective voxels: %v", err)
	}
}

func TestSanitizeDropVoxelRemapsScores(t *testing.T) {
	d := corruptData(t)
	scores, err := SelectVoxels(d, Config{Sanitize: SanitizeDropVoxel})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != d.Voxels()-2 {
		t.Fatalf("scored %d voxels, want %d", len(scores), d.Voxels()-2)
	}
	seen := map[int]bool{}
	for _, s := range scores {
		if s.Voxel == 3 || s.Voxel == 7 {
			t.Fatalf("dropped voxel %d scored", s.Voxel)
		}
		if s.Voxel < 0 || s.Voxel >= d.Voxels() {
			t.Fatalf("score voxel %d outside original numbering of %d", s.Voxel, d.Voxels())
		}
		if seen[s.Voxel] {
			t.Fatalf("voxel %d scored twice", s.Voxel)
		}
		seen[s.Voxel] = true
	}
	// The remap must reach indices above the dropped ones.
	if !seen[d.Voxels()-1] {
		t.Fatalf("last voxel %d missing: scores not remapped to original numbering", d.Voxels()-1)
	}
}

func TestSanitizeZeroFill(t *testing.T) {
	d := corruptData(t)
	scores, err := SelectVoxels(d, Config{Sanitize: SanitizeZeroFill})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != d.Voxels() {
		t.Fatalf("scored %d voxels, want all %d", len(scores), d.Voxels())
	}
	for _, s := range scores {
		if math.IsNaN(s.Accuracy) || math.IsInf(s.Accuracy, 0) {
			t.Fatalf("voxel %d accuracy %v not finite", s.Voxel, s.Accuracy)
		}
	}
	// The input must not have been mutated.
	if !math.IsNaN(float64(d.ds.Data.Row(3)[5])) {
		t.Fatal("ZeroFill mutated the caller's dataset")
	}
}

func TestSanitizeMethodReportsDefects(t *testing.T) {
	d := corruptData(t)
	clean, report, err := d.Sanitize(SanitizeDropVoxel)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.NonFinite) != 1 || report.NonFinite[0] != 3 {
		t.Fatalf("NonFinite = %v, want [3]", report.NonFinite)
	}
	if len(report.ZeroVariance) != 1 || report.ZeroVariance[0] != 7 {
		t.Fatalf("ZeroVariance = %v, want [7]", report.ZeroVariance)
	}
	if clean.Voxels() != d.Voxels()-2 {
		t.Fatalf("sanitized brain has %d voxels, want %d", clean.Voxels(), d.Voxels()-2)
	}
	if len(report.Kept) != clean.Voxels() {
		t.Fatalf("Kept maps %d voxels for brain of %d", len(report.Kept), clean.Voxels())
	}
	// A clean dataset passes through unchanged under every policy.
	pristine := robustData(t, 16)
	same, rep, err := pristine.Sanitize(SanitizeReject)
	if err != nil || same != pristine || !rep.Clean() {
		t.Fatalf("clean dataset: same=%v clean=%v err=%v", same == pristine, rep.Clean(), err)
	}
}
