// Package corr implements FCMA's first pipeline stage: reducing Pearson
// correlation over labeled epochs to tall-skinny matrix multiplication
// (paper §3.1, eqs. 1–3). It hosts the stage a task runs
// (Pipeline.RunKernels, fused.go): correlation, normalization and the
// kernel-matrix products over one cache-resident block at a time, so that
// the voxel-grouped interleaved buffer of Fig. 4 is never built. The two
// variants that do build it (Pipeline.RunInto, paper §4.3 and Table 7) stay
// for the comparison: merged normalizes each correlation block while it is
// still cache resident, separated writes all correlations first and
// normalizes in a second pass.
package corr

import (
	"context"
	"fmt"
	"math"

	"fcma/internal/fmri"
	"fcma/internal/safe"
	"fcma/internal/tensor"
)

// Pearson computes the reference Pearson correlation between x and y. It is
// the correctness oracle for the matmul reduction; hot paths never call it.
//
// Degenerate inputs follow the pipeline's default sanitization policy:
// a zero-variance (constant or empty) vector has correlation 0 by
// convention, and any non-finite sample (NaN/Inf from masked or corrupt
// voxels) also yields 0 instead of propagating NaN into the ranking.
func Pearson(x, y []float32) float64 {
	if len(x) != len(y) {
		panic("corr: Pearson over unequal-length vectors")
	}
	if len(x) == 0 {
		return 0
	}
	mx, sx := tensor.MeanStd(x)
	my, sy := tensor.MeanStd(y)
	if sx == 0 || sy == 0 || !finite(mx) || !finite(sx) || !finite(my) || !finite(sy) {
		return 0
	}
	var cov float64
	for i := range x {
		cov += (float64(x[i]) - mx) * (float64(y[i]) - my)
	}
	cov /= float64(len(x))
	r := cov / (sx * sy)
	if !finite(r) {
		return 0
	}
	return r
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// normalizeVector applies eq. 2 to one voxel's epoch window: src is
// mean-centered into dst and divided by the root sum of squares of the
// centered vector, so that the inner product of two normalized rows is
// their Pearson correlation. A zero-variance row normalizes to all zeros
// (correlation 0 by convention). The rss accumulation runs in float64 for
// headroom; the output stays float32.
func normalizeVector(dst, src []float32) {
	mean := float32(tensor.Mean(src))
	var rss float64
	for _, v := range src {
		d := float64(v - mean)
		rss += d * d
	}
	if rss <= 0 {
		for j := range dst {
			dst[j] = 0
		}
		return
	}
	inv := float32(1 / math.Sqrt(rss))
	for j, v := range src {
		dst[j] = (v - mean) * inv
	}
}

// EpochStack holds the normalized data of every epoch in the transposed
// T×N layout the correlation gemm consumes as its wide B operand. Building
// it once per task amortizes eq. 2 across all assigned voxels.
type EpochStack struct {
	// Epochs are the source epochs, ordered by subject (validated).
	Epochs []fmri.Epoch
	// T is the epoch length, N the brain size.
	T, N int
	// Subjects is the subject count, E the per-subject epoch count.
	Subjects, E int
	// Norm[e] is the T×N normalized activity of epoch e: Norm[e][t][v] is
	// voxel v's normalized value at epoch-local time t.
	Norm []*tensor.Matrix
}

// M returns the total number of epochs.
func (st *EpochStack) M() int { return len(st.Epochs) }

// BuildEpochStackContext normalizes every epoch of d per eq. 2 into
// transposed layout, parallelized over epochs, with cooperative
// cancellation (checked between epochs) and panic containment in the
// normalization workers.
func BuildEpochStackContext(ctx context.Context, d *fmri.Dataset, workers int) (*EpochStack, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	e0, err := d.EpochsPerSubject()
	if err != nil {
		return nil, err
	}
	// The merged pipeline requires epochs grouped contiguously by subject.
	for i := 1; i < len(d.Epochs); i++ {
		if d.Epochs[i].Subject < d.Epochs[i-1].Subject {
			return nil, fmt.Errorf("corr: epochs not ordered by subject at index %d", i)
		}
	}
	st := &EpochStack{
		Epochs:   d.Epochs,
		T:        d.Epochs[0].Len,
		N:        d.Voxels(),
		Subjects: d.Subjects,
		E:        e0,
		Norm:     make([]*tensor.Matrix, len(d.Epochs)),
	}
	err = safe.ParallelDynamic(ctx, safe.Span{Stage: "corr/stack"}, len(d.Epochs), workers, func(_ context.Context, e int) error {
		ep := d.Epochs[e]
		src := d.EpochData(ep) // N×T view
		out := tensor.NewMatrix(st.T, st.N)
		row := make([]float32, st.T)
		for v := 0; v < st.N; v++ {
			normalizeVector(row, src.Row(v))
			for t, val := range row {
				out.Data[t*out.Stride+v] = val
			}
		}
		st.Norm[e] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// CheckRange reports an error unless the voxels [v0, v0+V) are a
// non-empty range within a brain of n voxels. It is the one check of a
// task's range: it never forms v0+V, which wraps for a v0 near MaxInt.
func CheckRange(v0, V, n int) error {
	if V <= 0 || v0 < 0 || V > n-v0 {
		return fmt.Errorf("voxels [%d,+%d) outside brain of %d", v0, V, n)
	}
	return nil
}

// GatherAssigned fills dst (V×T) with the normalized values of voxels
// [v0, v0+V) for epoch e — the small A operand of the correlation gemm.
func (st *EpochStack) GatherAssigned(e, v0, V int, dst *tensor.Matrix) {
	if dst.Rows != V || dst.Cols != st.T {
		panic(fmt.Sprintf("corr: gather into %dx%d, want %dx%d", dst.Rows, dst.Cols, V, st.T))
	}
	if err := CheckRange(v0, V, st.N); err != nil {
		panic("corr: gather " + err.Error())
	}
	nm := st.Norm[e]
	for t := 0; t < st.T; t++ {
		src := nm.Data[t*nm.Stride+v0 : t*nm.Stride+v0+V]
		for v, val := range src {
			dst.Data[v*dst.Stride+t] = val
		}
	}
}
