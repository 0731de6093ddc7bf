package rt

import (
	"context"
	"testing"
	"time"

	"fcma/internal/fmri"
	"fcma/internal/tensor"
)

func testDataset(t testing.TB) *fmri.Dataset {
	t.Helper()
	d, err := fmri.Generate(fmri.Spec{
		Name: "rt-test", Voxels: 16, Subjects: 1, EpochsPerSubject: 4,
		EpochLen: 6, RestLen: 2, SignalVoxels: 4, Coupling: 0.8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestScannerStreamsAllFrames(t *testing.T) {
	d := testDataset(t)
	frames := NewScanner(d, 0).StreamContext(context.Background())
	count := 0
	for f := range frames {
		if f.Index != count {
			t.Fatalf("frame %d arrived at position %d", f.Index, count)
		}
		if len(f.Data) != d.Voxels() {
			t.Fatalf("frame with %d voxels", len(f.Data))
		}
		// Spot-check contents.
		if f.Data[3] != d.Data.At(3, f.Index) {
			t.Fatal("frame data mismatch")
		}
		count++
	}
	if count != d.TimePoints() {
		t.Fatalf("streamed %d of %d frames", count, d.TimePoints())
	}
}

func TestScannerPacing(t *testing.T) {
	d := testDataset(t)
	tr := 2 * time.Millisecond
	start := time.Now()
	frames := NewScanner(d, tr).StreamContext(context.Background())
	n := 0
	for range frames {
		n++
		if n == 5 {
			break
		}
	}
	if elapsed := time.Since(start); elapsed < 5*tr/2 {
		t.Fatalf("5 frames in %v — pacing not applied", elapsed)
	}
}

func TestAssemblerEmitsExactWindows(t *testing.T) {
	d := testDataset(t)
	asm, err := NewAssembler(d.Epochs, d.Voxels())
	if err != nil {
		t.Fatal(err)
	}
	var windows []window
	for f := range NewScanner(d, 0).StreamContext(context.Background()) {
		ws, err := asm.Feed(f)
		if err != nil {
			t.Fatal(err)
		}
		windows = append(windows, ws...)
	}
	if len(windows) != len(d.Epochs) {
		t.Fatalf("assembled %d of %d epochs", len(windows), len(d.Epochs))
	}
	for i, w := range windows {
		if w.EpochIndex != i {
			t.Fatalf("window %d has epoch index %d", i, w.EpochIndex)
		}
		want := d.EpochData(d.Epochs[i])
		if !w.Data.EqualApprox(want.Clone(), 0) {
			t.Fatalf("window %d data mismatch", i)
		}
	}
}

func TestAssemblerDetectsLostFrame(t *testing.T) {
	d := testDataset(t)
	asm, _ := NewAssembler(d.Epochs, d.Voxels())
	if _, err := asm.Feed(Frame{Index: 0, Data: make([]float32, d.Voxels())}); err != nil {
		t.Fatal(err)
	}
	if _, err := asm.Feed(Frame{Index: 2, Data: make([]float32, d.Voxels())}); err == nil {
		t.Fatal("gap accepted")
	}
}

func TestAssemblerRejectsBadFrameWidth(t *testing.T) {
	d := testDataset(t)
	asm, _ := NewAssembler(d.Epochs, d.Voxels())
	if _, err := asm.Feed(Frame{Index: 0, Data: make([]float32, 3)}); err == nil {
		t.Fatal("wrong-width frame accepted")
	}
}

func TestAssemblerValidation(t *testing.T) {
	if _, err := NewAssembler(nil, 4); err == nil {
		t.Fatal("empty design accepted")
	}
	if _, err := NewAssembler([]fmri.Epoch{{Start: 0, Len: 2}}, 0); err == nil {
		t.Fatal("zero voxels accepted")
	}
	bad := []fmri.Epoch{{Start: 10, Len: 2}, {Start: 0, Len: 2}}
	if _, err := NewAssembler(bad, 4); err == nil {
		t.Fatal("unordered design accepted")
	}
}

func TestAssemblerOverlappingEpochs(t *testing.T) {
	// Two overlapping windows: [0,4) and [2,6).
	eps := []fmri.Epoch{{Start: 0, Len: 4}, {Start: 2, Len: 4}}
	asm, err := NewAssembler(eps, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for i := 0; i < 6; i++ {
		ws, err := asm.Feed(Frame{Index: i, Data: []float32{float32(i), float32(-i)}})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range ws {
			got = append(got, w.EpochIndex)
			// Check window content for the overlapping case.
			for c := 0; c < 4; c++ {
				if w.Data.At(0, c) != float32(w.Epoch.Start+c) {
					t.Fatalf("epoch %d col %d wrong", w.EpochIndex, c)
				}
			}
		}
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("completed order %v", got)
	}
}

// constClassifier labels every window by the sign of its first element.
type constClassifier struct{}

func (constClassifier) ClassifyWindow(w *tensor.Matrix) (int, float64) {
	if w.At(0, 0) > 0 {
		return 1, 1
	}
	return 0, -1
}

func TestRunFeedbackEndToEnd(t *testing.T) {
	d := testDataset(t)
	frames := NewScanner(d, 0).StreamContext(context.Background())
	preds, errc := RunFeedbackContext(context.Background(), frames, d.Epochs, d.Voxels(), constClassifier{})
	count := 0
	for p := range preds {
		if p.EpochIndex != count {
			t.Fatalf("prediction order broken: %d at %d", p.EpochIndex, count)
		}
		if p.Label != 0 && p.Label != 1 {
			t.Fatalf("label %d", p.Label)
		}
		count++
	}
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if count != len(d.Epochs) {
		t.Fatalf("predicted %d of %d epochs", count, len(d.Epochs))
	}
}

func TestRunFeedbackSurfacesErrors(t *testing.T) {
	frames := make(chan Frame, 2)
	frames <- Frame{Index: 0, Data: make([]float32, 2)}
	frames <- Frame{Index: 5, Data: make([]float32, 2)} // gap
	close(frames)
	preds, errc := RunFeedbackContext(context.Background(), frames, []fmri.Epoch{{Start: 0, Len: 3}}, 2, constClassifier{})
	for range preds {
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("nil error")
		}
	case <-time.After(time.Second):
		t.Fatal("no error surfaced")
	}
}
