package fmri

import (
	"math"
	"strings"
	"testing"
)

func sanitizeTestDataset(t *testing.T) *Dataset {
	t.Helper()
	d, err := Generate(Spec{
		Name: "sanitize-test", Voxels: 10, Subjects: 2, EpochsPerSubject: 2,
		EpochLen: 6, RestLen: 2, SignalVoxels: 2, Coupling: 0.5, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func corrupt(t *testing.T) *Dataset {
	d := sanitizeTestDataset(t)
	d.Data.Row(2)[1] = float32(math.NaN())
	d.Data.Row(5)[0] = float32(math.Inf(1))
	row := d.Data.Row(8)
	for i := range row {
		row[i] = 3
	}
	return d
}

func TestScanDefectsClassifiesVoxels(t *testing.T) {
	r := scanDefects(corrupt(t))
	if len(r.NonFinite) != 2 || r.NonFinite[0] != 2 || r.NonFinite[1] != 5 {
		t.Fatalf("NonFinite = %v, want [2 5]", r.NonFinite)
	}
	if len(r.ZeroVariance) != 1 || r.ZeroVariance[0] != 8 {
		t.Fatalf("ZeroVariance = %v, want [8]", r.ZeroVariance)
	}
	if r.Clean() {
		t.Fatal("defective dataset reported clean")
	}
	if clean := scanDefects(sanitizeTestDataset(t)); !clean.Clean() {
		t.Fatalf("pristine dataset reported defects: %+v", clean)
	}
}

func TestSanitizeRejectNamesVoxels(t *testing.T) {
	_, _, err := SanitizeDataset(corrupt(t), SanitizeReject)
	if err == nil {
		t.Fatal("defective dataset accepted")
	}
	if !strings.Contains(err.Error(), "[2 5]") || !strings.Contains(err.Error(), "[8]") {
		t.Fatalf("rejection lacks voxel lists: %v", err)
	}
}

func TestSanitizeDropVoxelRemapsSideChannels(t *testing.T) {
	d := corrupt(t)
	d.GridIndex = make([]int, d.Voxels())
	d.Dims = [3]int{10, 1, 1}
	for i := range d.GridIndex {
		d.GridIndex[i] = i
	}
	d.SignalVoxels = []int{2, 9} // one dropped, one kept
	out, r, err := SanitizeDataset(d, SanitizeDropVoxel)
	if err != nil {
		t.Fatal(err)
	}
	if out.Voxels() != 7 {
		t.Fatalf("kept %d voxels, want 7", out.Voxels())
	}
	if len(r.Kept) != 7 || len(r.Dropped) != 3 {
		t.Fatalf("Kept=%v Dropped=%v", r.Kept, r.Dropped)
	}
	for nv, ov := range r.Kept {
		if out.GridIndex[nv] != ov {
			t.Fatalf("grid index of new voxel %d = %d, want original index %d", nv, out.GridIndex[nv], ov)
		}
		for i, want := range d.Data.Row(ov) {
			if out.Data.Row(nv)[i] != want {
				t.Fatalf("data of new voxel %d differs from original voxel %d", nv, ov)
			}
		}
	}
	// Signal voxel 2 was dropped; 9 maps to the new numbering.
	if len(out.SignalVoxels) != 1 || r.Kept[out.SignalVoxels[0]] != 9 {
		t.Fatalf("SignalVoxels = %v (via Kept: want original 9)", out.SignalVoxels)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("sanitized dataset invalid: %v", err)
	}
}

func TestSanitizeDropAllVoxelsFails(t *testing.T) {
	d := sanitizeTestDataset(t)
	for v := 0; v < d.Voxels(); v++ {
		d.Data.Row(v)[0] = float32(math.NaN())
	}
	if _, _, err := SanitizeDataset(d, SanitizeDropVoxel); err == nil {
		t.Fatal("dataset with every voxel defective accepted")
	}
}

func TestSanitizeZeroFillReplacesOnCopy(t *testing.T) {
	d := corrupt(t)
	out, r, err := SanitizeDataset(d, SanitizeZeroFill)
	if err != nil {
		t.Fatal(err)
	}
	if out == d {
		t.Fatal("ZeroFill returned the input dataset despite NaN samples")
	}
	if out.Data.Row(2)[1] != 0 || out.Data.Row(5)[0] != 0 {
		t.Fatal("non-finite samples not zeroed")
	}
	if !math.IsNaN(float64(d.Data.Row(2)[1])) {
		t.Fatal("input dataset mutated")
	}
	if len(r.NonFinite) != 2 {
		t.Fatalf("NonFinite = %v", r.NonFinite)
	}
	// Zero-variance-only defects need no rewrite.
	zv := sanitizeTestDataset(t)
	row := zv.Data.Row(1)
	for i := range row {
		row[i] = 4
	}
	same, _, err := SanitizeDataset(zv, SanitizeZeroFill)
	if err != nil || same != zv {
		t.Fatalf("zero-variance-only ZeroFill: same=%v err=%v", same == zv, err)
	}
}

func TestCheckEpochsDefects(t *testing.T) {
	cases := []struct {
		name   string
		epochs []Epoch
		tp     int
		want   string // substring of the error; "" means valid
	}{
		{"valid", []Epoch{{0, 0, 0, 4}, {0, 1, 6, 4}, {1, 0, 0, 4}}, 12, ""},
		{"adjacent ok", []Epoch{{0, 0, 0, 4}, {0, 1, 4, 4}}, 8, ""},
		{"different subjects may share time", []Epoch{{0, 0, 0, 4}, {1, 0, 2, 4}}, 8, ""},
		{"empty epoch", []Epoch{{0, 0, 0, 0}}, 8, "empty"},
		{"negative start", []Epoch{{0, 0, -1, 4}}, 8, "negative"},
		{"out of range", []Epoch{{0, 0, 6, 4}}, 8, "outside"},
		{"overlap", []Epoch{{0, 0, 0, 4}, {0, 1, 2, 4}}, 8, "overlap"},
		{"overlap unordered input", []Epoch{{0, 1, 2, 4}, {0, 0, 0, 4}}, 8, "overlap"},
	}
	for _, tc := range cases {
		err := checkEpochs(tc.epochs, tc.tp)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}
