package norm

import "math"

// Scratch carries the per-column moment and scaling buffers the fused
// normalization needs, so a hot caller (the merged correlation pipeline)
// can reuse them across blocks instead of allocating per call.
// The zero value is ready to use; buffers grow to the widest block seen.
// FisherThenZScoreStrided is a declared hot path: once the scratch is
// warm, only grow may allocate, and only on a width increase.
//
//lint:allow f32purity float64 moment accumulation (E[X²]−E[X]²) needs the headroom; scale/shift re-enter float32
type Scratch struct {
	sum, sumSq   []float64
	scale, shift []float32
	// tail lists one row's |r| >= 0.625 coefficients between fisherRow's
	// two passes.
	tail []tailCoef
}

// tailCoef is a coefficient deferred to fisherTail: its column and value.
type tailCoef struct {
	j int32
	r float32
}

// grow sizes the buffers for cols columns, reusing capacity when possible.
//
//lint:allow f32purity float64 moment accumulators per the paper's §4.3
func (s *Scratch) grow(cols int) {
	if cap(s.sum) < cols {
		s.sum = make([]float64, cols)
		s.sumSq = make([]float64, cols)
		s.scale = make([]float32, cols)
		s.shift = make([]float32, cols)
		s.tail = make([]tailCoef, cols)
		return
	}
	s.sum = s.sum[:cols]
	s.sumSq = s.sumSq[:cols]
	s.scale = s.scale[:cols]
	s.shift = s.shift[:cols]
	s.tail = s.tail[:cols]
	for j := range s.sum {
		s.sum[j], s.sumSq[j] = 0, 0
	}
}

// FisherThenZScoreStrided Fisher-transforms then column-z-scores, in
// place, a rows×cols block whose rows are stride elements apart in data
// (stride >= cols) — the layout of the pipeline's interleaved blocks. It
// is allocation-free once the scratch is warm.
//
//lint:hotpath stage-2 entry, called once per correlation block
func (s *Scratch) FisherThenZScoreStrided(data []float32, rows, cols, stride int) {
	s.sweep(data, rows, cols, stride, true)
}

// sweep is stage 2 over one rows×cols block: with fisher set, every
// coefficient is Fisher-transformed; then each column is shifted to mean 0
// and scaled to standard deviation 1 (zero-variance columns become zeros).
// The block is read once for transform+moments and once for the scaling,
// walking row-major so the accesses stay unit-stride; the moments are the
// one-pass E[X²]−E[X]² accumulation of the paper's §4.3, kept in float64
// because that difference cancels.
//
//lint:allow f32purity float64 moment accumulation per the paper's §4.3; scale/shift re-enter float32
//lint:hotpath the one Fisher+moments+scale sweep, run over every correlation block
func (s *Scratch) sweep(data []float32, rows, cols, stride int, fisher bool) {
	if rows == 0 || cols == 0 {
		return
	}
	if stride < cols {
		//lint:allow allocfree cold caller-bug panic; the message string boxes once
		panic("norm: stride shorter than cols")
	}
	if len(data) < (rows-1)*stride+cols {
		//lint:allow allocfree cold caller-bug panic; the message string boxes once
		panic("norm: block shorter than rows*stride")
	}
	//lint:allow allocfree grow allocates only on a width increase (allocgate sees its makes whenever it inlines here)
	s.grow(cols)
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
		row := data[i*stride:][:cols]
		for j, v := range row {
			row[j] = v*scale[j] - shift[j]
		}
	}
}

// fisherRow is FisherZ over one row (len(row) <= len(s.tail)) without a
// data-dependent branch: the first pass gives every coefficient the
// small-|r| polynomial and files the ones that needed fisherTail instead,
// the second pass redoes just those. Correlations straddle the branch point at
// random, so branching per coefficient costs a misprediction on up to
// half of them — as much time as the arithmetic.
func (s *Scratch) fisherRow(row []float32) {
	tail := s.tail[:len(row)]
	n := 0
	for j, r := range row {
		sq := r * r
		row[j] = fisherSmall(r, sq)
		tail[n] = tailCoef{int32(j), r}
		if sq >= fisherSplit2 {
			n++
		}
	}
	for _, t := range tail[:n] {
		row[t.j] = fisherTail(t.r)
	}
}
