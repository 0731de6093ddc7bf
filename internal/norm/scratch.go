package norm

import (
	"math"

	"fcma/internal/blas"
)

// Scratch carries the buffers the fused normalization needs — fisherRow's
// list of filed coefficients and, for the columns the Go loops take, the
// per-column moments and scaling — so a hot caller (the correlation
// pipeline) can reuse them across blocks instead of allocating per call.
// The zero value is ready to use; buffers grow to the widest block seen.
// The arithmetic itself is sweep's, below, and on a vector kernel path its
// twins' in sweep_amd64.s. The entry points are declared hot paths: once
// the scratch is warm, only grow may allocate, and only on a width
// increase. The moments are float64, because E[X²]−E[X]² cancels and
// needs the headroom; scale and shift re-enter float32.
type Scratch struct {
	sum, sumSq   []float64
	scale, shift []float32
	// tailR and tailJ list one row's |r| >= 0.625 coefficients, value and
	// column, between fisherRow's two passes.
	tailR []float32
	tailJ []int32
}

// grow sizes the tail lists for cols columns and the moment and scaling
// buffers for the goCols of them the Go loops take, reusing capacity when
// possible.
func (s *Scratch) grow(cols, goCols int) {
	if len(s.tailR) < cols {
		s.tailR = make([]float32, cols)
		s.tailJ = make([]int32, cols)
	}
	if cap(s.sum) < goCols {
		s.sum = make([]float64, goCols)
		s.sumSq = make([]float64, goCols)
		s.scale = make([]float32, goCols)
		s.shift = make([]float32, goCols)
		return
	}
	s.sum = s.sum[:goCols]
	s.sumSq = s.sumSq[:goCols]
	s.scale = s.scale[:goCols]
	s.shift = s.shift[:goCols]
	for j := range s.sum {
		s.sum[j], s.sumSq[j] = 0, 0
	}
}

// FisherThenZScoreStrided Fisher-transforms then column-z-scores, in
// place, a rows×cols block whose rows are stride elements apart in data
// (stride >= cols) — the layout of the pipeline's interleaved blocks. It
// is allocation-free once the scratch is warm.
func (s *Scratch) FisherThenZScoreStrided(data []float32, rows, cols, stride int) {
	s.sweep(data, stride, data, rows, cols, stride, true)
}

// FisherThenZScoreInto is FisherThenZScoreStrided with the normalized block
// written to dst, rows dstStride elements apart (dstStride >= cols),
// instead of back over data: the merged pipeline normalizes out of its
// cache-resident block straight into the output buffer. data is left
// holding the Fisher-transformed coefficients; dst must not overlap it.
func (s *Scratch) FisherThenZScoreInto(dst []float32, dstStride int, data []float32, rows, cols, stride int) {
	s.sweep(dst, dstStride, data, rows, cols, stride, true)
}

// sweep is stage 2 over one rows×cols block: with fisher set, every
// coefficient of data is Fisher-transformed in place; then each column is
// shifted to mean 0 and scaled to standard deviation 1 (zero-variance
// columns become zeros) on its way into dst, whose rows are dstStride
// apart — dst is data itself for the in-place entry points. The moments
// are the one-pass E[X²]−E[X]² accumulation of the paper's §4.3, kept in
// float64 because that difference cancels.
//
// On a vector kernel path (blas.Lanes) the kernels in sweep_amd64.s take
// the leading columns, every multiple of eight (the Fisher pass sixteen
// lanes at a time on the 16-lane path), and the loops below the rest.
// Columns are independent and the kernels add each column's rows in the
// same ascending order, so where the split falls changes no bit. The loops
// read the block once for transform+moments and once for the scaling,
// walking row-major so the accesses stay unit-stride.
func (s *Scratch) sweep(dst []float32, dstStride int, data []float32, rows, cols, stride int, fisher bool) {
	if rows == 0 || cols == 0 {
		return
	}
	if stride < cols || dstStride < cols {
		panic("norm: stride shorter than cols")
	}
	if len(data) < (rows-1)*stride+cols || len(dst) < (rows-1)*dstStride+cols {
		panic("norm: block shorter than rows*stride")
	}
	vec, lanes := 0, blas.Lanes()
	if lanes > 0 {
		vec = cols &^ 7
	}
	s.grow(cols, cols-vec)
	if vec > 0 {
		if fisher && lanes == 16 {
			for i := 0; i < rows; i++ {
				fisherRowZMM(&data[i*stride], vec, &s.tailR[0], &s.tailJ[0])
			}
		} else if fisher {
			for i := 0; i < rows; i++ {
				fisherRowAVX2(&data[i*stride], vec, &s.tailR[0], &s.tailJ[0])
			}
		}
		zscorePanelsAVX2(&dst[0], dstStride, &data[0], stride, rows, vec)
		if vec == cols {
			return
		}
		dst, data, cols = dst[vec:], data[vec:], cols-vec
	}
	// Every slice below has length cols exactly, which is what lets the
	// compiler drop the bounds checks from the three inner loops.
	sum, sumSq := s.sum[:cols], s.sumSq[:cols]
	for i := 0; i < rows; i++ {
		row := data[i*stride:][:cols]
		if fisher {
			s.fisherRow(row)
		}
		for j, v := range row {
			f := float64(v)
			sum[j] += f
			sumSq[j] += f * f
		}
	}
	n := float64(rows)
	scale, shift := s.scale[:cols], s.shift[:cols]
	for j := range sum {
		mean := sum[j] / n
		variance := sumSq[j]/n - mean*mean
		if variance <= 0 {
			// Explicit reset: the buffers are reused across blocks.
			scale[j], shift[j] = 0, 0
			continue
		}
		inv := 1 / math.Sqrt(variance)
		scale[j] = float32(inv)
		shift[j] = float32(mean * inv)
	}
	for i := 0; i < rows; i++ {
		row, out := data[i*stride:][:cols], dst[i*dstStride:][:cols]
		for j, v := range row {
			out[j] = v*scale[j] - shift[j]
		}
	}
}

// fisherRow is FisherZ over one row (len(row) <= len(s.tailR)) without a
// data-dependent branch: the first pass gives every coefficient the
// small-|r| polynomial and files the ones that needed fisherTail instead,
// the second pass redoes just those. Correlations straddle the branch point at
// random, so branching per coefficient costs a misprediction on up to
// half of them — as much time as the arithmetic.
func (s *Scratch) fisherRow(row []float32) {
	tailR, tailJ := s.tailR[:len(row)], s.tailJ[:len(row)]
	n := 0
	for j, r := range row {
		sq := r * r
		row[j] = fisherSmall(r, sq)
		tailR[n], tailJ[n] = r, int32(j)
		if sq >= fisherSplit2 {
			n++
		}
	}
	for t, j := range tailJ[:n] {
		row[j] = fisherTail(tailR[t])
	}
}
