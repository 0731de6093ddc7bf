package access

import "fcma/internal/mic"

// loadVec records one vector load instruction. On the coprocessor (KNC)
// an unaligned vector load is an unpack-low/unpack-high instruction pair,
// so misaligned addresses cost a second reference — one reason real
// kernels keep staging buffers aligned.
func loadVec(m *mic.Machine, addr uint64, lanes int) {
	m.Load(addr, lanes*4)
	m.VectorOp(lanes, 0)
	if m.Cfg.VectorLanes == 16 && addr%uint64(m.Cfg.VectorLanes*4) != 0 {
		m.Load(addr, 4) // the paired unpack instruction
		m.VectorOp(lanes, 0)
	}
}

// storeVec records one vector store instruction (packstore pair when
// unaligned on KNC).
func storeVec(m *mic.Machine, addr uint64, lanes int) {
	m.Store(addr, lanes*4)
	m.VectorOp(lanes, 0)
	if m.Cfg.VectorLanes == 16 && addr%uint64(m.Cfg.VectorLanes*4) != 0 {
		m.Store(addr, 4)
		m.VectorOp(lanes, 0)
	}
}

// loadScalar records one scalar float load (a one-lane VPU op on the
// coprocessor's in-order pipeline).
func loadScalar(m *mic.Machine, addr uint64) {
	m.Load(addr, 4)
	m.VectorOp(1, 0)
}

// storeScalar records one scalar float store.
func storeScalar(m *mic.Machine, addr uint64) {
	m.Store(addr, 4)
	m.VectorOp(1, 0)
}

// GemmTallSkinny traces the paper's optimized stage-1 kernel: for each
// epoch, C[V×N] = A[V×T]·B[T×N] with N blocked into L2-resident column
// strips and full-width vector FMAs streaming B exactly once per assigned
// voxel (optimization ideas #1/#3).
func GemmTallSkinny(m *mic.Machine, s Shape, colBlock int) {
	if colBlock <= 0 {
		colBlock = 4096
	}
	lanes := m.Cfg.VectorLanes
	a := m.Alloc(s.V * s.T * 4)
	b := m.Alloc(s.T * s.N * 4)
	c := m.Alloc(s.V * s.M * s.N * 4) // interleaved output buffer
	for e := 0; e < s.M; e++ {
		for j0 := 0; j0 < s.N; j0 += colBlock {
			w := min(colBlock, s.N-j0)
			for i := 0; i < s.V; i++ {
				// A row stays in registers across the strip.
				for p := 0; p < s.T; p++ {
					loadScalar(m, a+uint64((i*s.T+p)*4))
				}
				for j := j0; j < j0+w; j += lanes {
					l := min(lanes, j0+w-j)
					for p := 0; p < s.T; p++ {
						loadVec(m, b+uint64((p*s.N+j)*4), l)
						m.VectorOp(l, 2*l) // FMA
					}
					// Interleaved store: row i·M+e of the Fig. 4 buffer.
					storeVec(m, c+uint64(((i*s.M+e)*s.N+j)*4), l)
				}
			}
		}
	}
}

// GemmBaseline traces a general-purpose packed GEMM (the MKL stand-in) on
// the same products: B is packed into KC×NC panels and A into MC×KC panels
// before a narrow micro-kernel runs — on tall-skinny operands (k = T ≈ 12)
// the packing and edge-case handling dominate, producing the excess memory
// references and low vector intensity of Table 1.
func GemmBaseline(m *mic.Machine, s Shape) {
	const (
		nc = 4096
		nr = 8 // micro-kernel width: half the coprocessor's lanes
		mr = 4
	)
	a := m.Alloc(s.V * s.T * 4)
	b := m.Alloc(s.T * s.N * 4)
	c := m.Alloc(s.V * s.M * s.N * 4)
	packA := m.Alloc(s.V * s.T * 4)
	packB := m.Alloc(s.T * nc * 4)
	for e := 0; e < s.M; e++ {
		for jc := 0; jc < s.N; jc += nc {
			nb := min(nc, s.N-jc)
			// Pack B panel: k=12 rows force the strided edge path —
			// scalar element copies.
			for j := 0; j < nb; j++ {
				for p := 0; p < s.T; p++ {
					loadScalar(m, b+uint64((p*s.N+jc+j)*4))
					storeScalar(m, packB+uint64((j*s.T+p)*4))
				}
			}
			// Pack A panel (once per column panel — re-packed every jc,
			// the redundancy MKL pays on this shape).
			for i := 0; i < s.V; i++ {
				for p := 0; p < s.T; p++ {
					loadScalar(m, a+uint64((i*s.T+p)*4))
					storeScalar(m, packA+uint64((i*s.T+p)*4))
				}
			}
			// Micro-kernel sweep.
			for i0 := 0; i0 < s.V; i0 += mr {
				mh := min(mr, s.V-i0)
				for j0 := 0; j0 < nb; j0 += nr {
					w := min(nr, nb-j0)
					for p := 0; p < s.T; p++ {
						// Broadcast mh A values, one 8-lane B load,
						// mh FMAs at 8 lanes, plus scalar loop overhead
						// for the k-remainder path.
						for x := 0; x < mh; x++ {
							loadScalar(m, packA+uint64(((i0+x)*s.T+p)*4))
						}
						loadVec(m, packB+uint64((j0*s.T+p*nr)*4), w)
						for x := 0; x < mh; x++ {
							m.VectorOp(w, 2*w)
						}
						m.VectorOp(1, 0) // k-loop bookkeeping on the VPU pipe
					}
					// Write the C block (read-modify-write rows).
					for x := 0; x < mh; x++ {
						addr := c + uint64((((i0+x)*s.M+e)*s.N+jc+j0)*4)
						loadVec(m, addr, w)
						storeVec(m, addr, w)
					}
				}
			}
		}
	}
}
