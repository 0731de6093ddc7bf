package access

import "fcma/internal/mic"

// NormalizeBaseline traces the baseline's standalone stage 2 (Table 1,
// "Normalization" row): separate passes over the full correlation buffer —
// Fisher transform (read+write), moment accumulation (read), z-score
// scaling (read+write). The compiler's auto-vectorized path runs at half
// width (unaligned 8-lane ops), and every pass re-reads the buffer from
// memory because stage 1 has long since evicted it (the compulsory misses
// of §3.3.2).
func NormalizeBaseline(m *mic.Machine, s Shape) {
	normalizeSeparatedPass(m, s, 8, m.Alloc(s.V*s.M*s.N*4))
}

// normalizeSeparatedPass traces the unfused stage 2 at the given vector
// width: for each voxel and subject, the E×N block is swept three times
// (transform, moments, scale).
func normalizeSeparatedPass(m *mic.Machine, s Shape, lanes int, buf uint64) {
	subjects := s.Subjects()
	for v := 0; v < s.V; v++ {
		for subj := 0; subj < subjects; subj++ {
			base := ((v*s.M + subj*s.E) * s.N) * 4
			// Pass 1: Fisher transform (read, transcendental, write).
			for e := 0; e < s.E; e++ {
				rowAddr := buf + uint64(base+e*s.N*4)
				for j := 0; j < s.N; j += lanes {
					l := min(lanes, s.N-j)
					loadVec(m, rowAddr+uint64(j*4), l)
					m.EMUOp(l)         // log for atanh
					m.VectorOp(l, 2*l) // scale + divide of the transform
					storeVec(m, rowAddr+uint64(j*4), l)
				}
			}
			// Pass 2: moment accumulation (read only).
			for e := 0; e < s.E; e++ {
				rowAddr := buf + uint64(base+e*s.N*4)
				for j := 0; j < s.N; j += lanes {
					l := min(lanes, s.N-j)
					loadVec(m, rowAddr+uint64(j*4), l)
					m.VectorOp(l, 2*l) // sum FMA
					m.VectorOp(l, 2*l) // sum-of-squares FMA
				}
			}
			// Moment finalization per column strip (scalar tail).
			for j := 0; j < s.N; j += lanes {
				m.VectorOp(1, 2)
			}
			// Pass 3: subtract mean, scale by 1/σ (read + write).
			for e := 0; e < s.E; e++ {
				rowAddr := buf + uint64(base+e*s.N*4)
				for j := 0; j < s.N; j += lanes {
					l := min(lanes, s.N-j)
					loadVec(m, rowAddr+uint64(j*4), l)
					m.VectorOp(l, 2*l)
					storeVec(m, rowAddr+uint64(j*4), l)
				}
			}
		}
	}
}

// StagesSeparated traces stage 1 followed by an un-fused stage 2 (the
// "separated" row of Table 7): the correlation buffer is written by the
// gemm, evicted, and swept three more times by the normalization passes —
// at full vector width (this is the optimized kernel run unfused, isolating
// the effect of merging).
func StagesSeparated(m *mic.Machine, s Shape, colBlock int) {
	GemmTallSkinny(m, s, colBlock)
	buf := m.Alloc(s.V * s.M * s.N * 4)
	normalizeSeparatedPass(m, s, m.Cfg.VectorLanes, buf)
}

// StagesMerged traces the fused stage 1+2 (the "merged" row of Table 7,
// §4.3): correlations for one (voxel, subject, column-block) tile come out
// of the FMA accumulators, are Fisher-transformed in registers (with the
// moments accumulated on the fly), stored once to an L2-resident scratch
// block, then scaled and written to the output buffer exactly once.
func StagesMerged(m *mic.Machine, s Shape, colBlock int) {
	if colBlock <= 0 {
		colBlock = 4096
	}
	lanes := m.Cfg.VectorLanes
	a := m.Alloc(s.V * s.T * 4)
	b := m.Alloc(s.T * s.N * 4)
	local := m.Alloc(s.E * colBlock * 4)
	out := m.Alloc(s.V * s.M * s.N * 4)
	subjects := s.Subjects()
	for v := 0; v < s.V; v++ {
		for j0 := 0; j0 < s.N; j0 += colBlock {
			w := min(colBlock, s.N-j0)
			for subj := 0; subj < subjects; subj++ {
				// Correlation rows, transformed in registers before the
				// single store into the scratch block.
				for e := 0; e < s.E; e++ {
					for p := 0; p < s.T; p++ {
						loadScalar(m, a+uint64((v*s.T+p)*4))
					}
					for j := 0; j < w; j += lanes {
						l := min(lanes, w-j)
						for p := 0; p < s.T; p++ {
							loadVec(m, b+uint64((p*s.N+j0+j)*4), l)
							m.VectorOp(l, 2*l) // correlation FMA
						}
						m.EMUOp(l)         // Fisher log, still in registers
						m.VectorOp(l, 2*l) // transform scale
						m.VectorOp(l, 2*l) // moments FMA (register accumulators)
						m.VectorOp(l, 2*l)
						storeVec(m, local+uint64((e*colBlock+j)*4), l)
					}
				}
				// Moment finalization.
				for j := 0; j < w; j += lanes {
					m.VectorOp(1, 2)
				}
				// Scale pass over the L2-resident block + single
				// write-out to the big buffer.
				for e := 0; e < s.E; e++ {
					for j := 0; j < w; j += lanes {
						l := min(lanes, w-j)
						loadVec(m, local+uint64((e*colBlock+j)*4), l)
						m.VectorOp(l, 2*l)
						storeVec(m, out+uint64(((v*s.M+subj*s.E+e)*s.N+j0+j)*4), l)
					}
				}
			}
		}
	}
}
