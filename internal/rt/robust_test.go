package rt

import (
	"context"
	"errors"
	"testing"
	"time"

	"fcma/internal/safe"
	"fcma/internal/tensor"
)

type panicClassifier struct{}

func (panicClassifier) ClassifyWindow(w *tensor.Matrix) (int, float64) {
	panic("injected classifier panic")
}

func TestStreamContextCancellation(t *testing.T) {
	d := testDataset(t)
	ctx, cancel := context.WithCancel(context.Background())
	frames := NewScanner(d, time.Millisecond).StreamContext(ctx)
	<-frames
	cancel()
	deadline := time.After(time.Second)
	for {
		select {
		case _, ok := <-frames:
			if !ok {
				return // channel closed promptly after cancellation
			}
		case <-deadline:
			t.Fatal("stream did not stop after context cancellation")
		}
	}
}

// TestRunFeedbackContainsClassifierPanic: a panicking classifier must
// surface as a *safe.PipelineError on the error channel, not crash the
// process.
func TestRunFeedbackContainsClassifierPanic(t *testing.T) {
	d := testDataset(t)
	frames := NewScanner(d, 0).StreamContext(context.Background())
	preds, errc := RunFeedbackContext(context.Background(), frames, d.Epochs, d.Voxels(), panicClassifier{})
	for range preds {
	}
	select {
	case err := <-errc:
		var pe *safe.PipelineError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v (%T), want *safe.PipelineError", err, err)
		}
		if pe.Stage != "rt/feedback" {
			t.Fatalf("stage = %q, want rt/feedback", pe.Stage)
		}
	case <-time.After(time.Second):
		t.Fatal("no error delivered for panicking classifier")
	}
}

// TestRunFeedbackContextCancellation: cancelling the loop's context must
// end it and deliver ctx.Err() even when nobody drains predictions.
func TestRunFeedbackContextCancellation(t *testing.T) {
	d := testDataset(t)
	ctx, cancel := context.WithCancel(context.Background())
	frames := NewScanner(d, time.Millisecond).StreamContext(ctx)
	preds, errc := RunFeedbackContext(ctx, frames, d.Epochs, d.Voxels(), constClassifier{})
	cancel()
	deadline := time.After(2 * time.Second)
	for preds != nil || errc == nil {
		select {
		case _, ok := <-preds:
			if !ok {
				preds = nil
			}
		case err := <-errc:
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled or clean close", err)
			}
			return
		case <-deadline:
			t.Fatal("feedback loop did not end after cancellation")
		}
	}
}
