// Package rt implements the real-time side of the paper's closed-loop
// system (Fig. 1): a scanner source streaming one brain volume per TR, an
// assembler that recognizes completed task epochs in the stream, and a
// feedback loop that classifies each completed epoch and emits the
// prediction that would drive the stimulus in a neurofeedback experiment.
//
// The scanner here replays a prerecorded dataset (the stand-in for the
// Siemens Skyra producing ~35,000 voxels every 1.5 s); everything
// downstream is the real production path.
package rt

import (
	"context"
	"fmt"
	"time"

	"fcma/internal/fmri"
	"fcma/internal/obs"
	"fcma/internal/obs/trace"
	"fcma/internal/safe"
	"fcma/internal/tensor"
)

// Closed-loop health metrics in the process-wide registry. The epoch
// latency histogram is the paper's headline real-time quantity (it must
// stay far below the TR); the pending-windows gauge exposes frame lag —
// how many epochs sit partially assembled at any moment.
var (
	obsFrames      = obs.Default().Counter("rt_frames_total")
	obsWindows     = obs.Default().Counter("rt_windows_total")
	obsPredictions = obs.Default().Counter("rt_predictions_total")
	obsEpochLat    = obs.Default().Histogram("rt_epoch_latency_seconds", nil)
	obsPending     = obs.Default().Gauge("rt_pending_windows")
)

// Frame is one brain volume: the activity of every voxel at one time
// point.
type Frame struct {
	// Index is the global time point (column of the session).
	Index int
	// Data holds one value per voxel; the slice is owned by the receiver.
	Data []float32
}

// Scanner replays a dataset's time series frame by frame.
type Scanner struct {
	data *fmri.Dataset
	tr   time.Duration
}

// NewScanner wraps a dataset as a frame source. tr is the inter-frame
// interval (0 streams as fast as the consumer accepts, the useful setting
// for tests and emulation).
func NewScanner(d *fmri.Dataset, tr time.Duration) *Scanner {
	return &Scanner{data: d, tr: tr}
}

// StreamContext starts the replay and returns the frame channel. The
// channel is closed after the final frame, or as soon as ctx is cancelled,
// whether the streamer is waiting out a TR interval or blocked on a slow
// consumer.
func (s *Scanner) StreamContext(ctx context.Context) <-chan Frame {
	out := make(chan Frame)
	safe.Go("rt/scanner", func() error {
		defer close(out)
		nt := s.data.TimePoints()
		nv := s.data.Voxels()
		for t := 0; t < nt; t++ {
			buf := make([]float32, nv)
			for v := 0; v < nv; v++ {
				buf[v] = s.data.Data.At(v, t)
			}
			if s.tr > 0 {
				select {
				case <-time.After(s.tr):
				case <-ctx.Done():
					return nil
				}
			}
			select {
			case out <- Frame{Index: t, Data: buf}:
			case <-ctx.Done():
				return nil
			}
		}
		return nil
	}, func(error) {})
	return out
}

// window is a completed epoch: its metadata and the voxels×Len activity
// block assembled from the stream.
type window struct {
	// EpochIndex is the position in the design's epoch list.
	EpochIndex int
	// Epoch is the design entry.
	Epoch fmri.Epoch
	// Data is the assembled voxels×Len activity.
	Data *tensor.Matrix
}

// Assembler recognizes completed epochs in a frame stream. The design
// (epoch boundaries) is known in advance — in a real experiment it is the
// stimulus schedule; labels in the design are ignored here (prediction is
// the classifier's job).
type Assembler struct {
	epochs   []fmri.Epoch
	voxels   int
	pending  map[int]*window // epoch index -> partially filled window
	finished map[int]bool    // epochs already emitted (overlapping designs)
	next     int             // expected frame index
	done     int             // all epochs below this index are finished
}

// NewAssembler builds an assembler for the given design over a brain of
// `voxels` voxels. Epochs must be in onset order.
func NewAssembler(epochs []fmri.Epoch, voxels int) (*Assembler, error) {
	if len(epochs) == 0 {
		return nil, fmt.Errorf("rt: empty design")
	}
	if voxels <= 0 {
		return nil, fmt.Errorf("rt: voxels = %d", voxels)
	}
	for i := 1; i < len(epochs); i++ {
		if epochs[i].Start < epochs[i-1].Start {
			return nil, fmt.Errorf("rt: design epochs out of order at %d", i)
		}
	}
	return &Assembler{
		epochs:   epochs,
		voxels:   voxels,
		pending:  make(map[int]*window),
		finished: make(map[int]bool),
	}, nil
}

// Feed consumes one frame and returns any epochs it completed (usually
// zero or one; overlapping designs may complete several). Frames must
// arrive in index order with no gaps — a scanner does not skip volumes,
// and a gap means the acquisition pipeline lost data.
func (a *Assembler) Feed(f Frame) ([]window, error) {
	if f.Index != a.next {
		return nil, fmt.Errorf("rt: frame %d arrived, expected %d (lost volume?)", f.Index, a.next)
	}
	if len(f.Data) != a.voxels {
		return nil, fmt.Errorf("rt: frame with %d voxels, want %d", len(f.Data), a.voxels)
	}
	a.next++
	var completed []window
	for ei := a.done; ei < len(a.epochs); ei++ {
		e := a.epochs[ei]
		if e.Start > f.Index {
			break // design is onset-ordered: no later epoch contains this frame
		}
		if a.finished[ei] || f.Index >= e.Start+e.Len {
			continue
		}
		w, ok := a.pending[ei]
		if !ok {
			w = &window{EpochIndex: ei, Epoch: e, Data: tensor.NewMatrix(a.voxels, e.Len)}
			a.pending[ei] = w
		}
		col := f.Index - e.Start
		for v, val := range f.Data {
			w.Data.Data[v*w.Data.Stride+col] = val
		}
		if col == e.Len-1 {
			completed = append(completed, *w)
			delete(a.pending, ei)
			a.finished[ei] = true
			for a.done < len(a.epochs) && a.finished[a.done] {
				delete(a.finished, a.done)
				a.done++
			}
		}
	}
	return completed, nil
}

// Pending reports how many epochs are partially assembled — the
// assembler's frame lag.
func (a *Assembler) Pending() int { return len(a.pending) }

// Prediction is the feedback emitted for one completed epoch.
type Prediction struct {
	// EpochIndex is the design position; Label the predicted condition.
	EpochIndex int
	Label      int
	// Decision is the classifier's signed confidence.
	Decision float64
	// Latency is the classification time for this epoch (excludes
	// acquisition time): the quantity that must stay far below the TR.
	Latency time.Duration
}

// classifier labels an assembled epoch window.
type classifier interface {
	// ClassifyWindow returns the predicted label and decision value for
	// a voxels×Len activity window.
	ClassifyWindow(w *tensor.Matrix) (int, float64)
}

// RunFeedbackContext wires frames through the assembler into the
// classifier and returns the prediction stream. The returned channel
// closes when the frame stream ends; an assembly error terminates the loop
// and is returned via the error channel (buffered, at most one). A
// cancelled ctx ends the loop (delivering ctx.Err() on the error channel)
// even when the consumer has stopped draining predictions, and a panicking
// classifier surfaces as a *safe.PipelineError on the error channel
// instead of killing the process.
func RunFeedbackContext(ctx context.Context, frames <-chan Frame, epochs []fmri.Epoch, voxels int, clf classifier) (<-chan Prediction, <-chan error) {
	out := make(chan Prediction)
	errc := make(chan error, 1)
	asm, err := NewAssembler(epochs, voxels)
	if err != nil {
		close(out)
		errc <- err
		return out, errc
	}
	safe.Go("rt/feedback", func() error {
		defer close(out)
		for {
			var f Frame
			var ok bool
			select {
			case f, ok = <-frames:
			case <-ctx.Done():
				return ctx.Err()
			}
			if !ok {
				return nil
			}
			wins, err := asm.Feed(f)
			if err != nil {
				return err
			}
			obsFrames.Inc()
			obsWindows.Add(uint64(len(wins)))
			obsPending.Set(float64(asm.Pending()))
			for _, w := range wins {
				_, csp := trace.StartSpan(ctx, "rt/classify")
				csp.SetInt("epoch", w.EpochIndex)
				start := time.Now()
				label, decision := clf.ClassifyWindow(w.Data)
				lat := time.Since(start)
				csp.End()
				obsEpochLat.Observe(lat.Seconds())
				p := Prediction{
					EpochIndex: w.EpochIndex,
					Label:      label,
					Decision:   decision,
					Latency:    lat,
				}
				obsPredictions.Inc()
				select {
				case out <- p:
				case <-ctx.Done():
					return ctx.Err()
				}
			}
		}
	}, func(err error) {
		if err != nil {
			errc <- err
		}
	})
	return out, errc
}
