package access

import "fcma/internal/mic"

// SyrkTallSkinny traces the paper's Fig. 7 kernel-matrix precompute for
// one voxel: C[Ms×Ms] = A[Ms×N]·Aᵀ, marching down the long dimension in
// 96-column blocks, staging each block transposed in a thread-local
// buffer, and updating C_local with full-width outer-product FMAs. Call it
// once per voxel (or scale by V).
func SyrkTallSkinny(m *mic.Machine, ms, n, block int) {
	if block <= 0 {
		block = 96
	}
	lanes := m.Cfg.VectorLanes
	a := m.Alloc(ms * n * 4)
	tbuf := m.Alloc(block * ms * 4)
	clocal := m.Alloc(ms * ms * 4)
	cglobal := m.Alloc(ms * ms * 4)
	for j0 := 0; j0 < n; j0 += block {
		w := min(block, n-j0)
		// Stage the block transposed: read A row chunks with vector
		// loads, write the transposed buffer with vector stores.
		for i := 0; i < ms; i++ {
			for j := 0; j < w; j += lanes {
				l := min(lanes, w-j)
				loadVec(m, a+uint64((i*n+j0+j)*4), l)
				storeVec(m, tbuf+uint64((j*ms+i)*4), l)
			}
		}
		// Outer-product updates over the lower triangle in lanes×lanes
		// register tiles.
		for i0 := 0; i0 < ms; i0 += lanes {
			ih := min(lanes, ms-i0)
			for j0t := 0; j0t <= i0; j0t += lanes {
				jh := min(lanes, ms-j0t)
				for p := 0; p < w; p++ {
					loadVec(m, tbuf+uint64((p*ms+i0)*4), ih)
					loadVec(m, tbuf+uint64((p*ms+j0t)*4), jh)
					for x := 0; x < ih; x++ {
						m.VectorOp(jh, 2*jh) // FMA row of the tile
					}
				}
				// Accumulate the tile into C_local.
				for x := 0; x < ih; x++ {
					addr := clocal + uint64(((i0+x)*ms+j0t)*4)
					loadVec(m, addr, jh)
					storeVec(m, addr, jh)
				}
			}
		}
	}
	// Merge C_local into the shared C under the lock (one pass).
	for i := 0; i < ms; i++ {
		for j := 0; j <= i; j += lanes {
			l := min(lanes, i-j+1)
			loadVec(m, clocal+uint64((i*ms+j)*4), l)
			loadVec(m, cglobal+uint64((i*ms+j)*4), l)
			storeVec(m, cglobal+uint64((i*ms+j)*4), l)
		}
	}
}

// SyrkBaseline traces the general GEMM-based path on the same product: an
// explicit transpose materializes Aᵀ, then the packed Goto GEMM computes
// the full (not triangular) output. With k = N huge and m = Ms tiny, every
// KC panel of A and Aᵀ is packed again for every panel pair — the traffic
// bloat behind MKL's 108 GFLOPS in Table 5.
func SyrkBaseline(m *mic.Machine, ms, n int) {
	const (
		kc = 256
		nr = 8
		mr = 4
	)
	lanes := m.Cfg.VectorLanes
	a := m.Alloc(ms * n * 4)
	at := m.Alloc(n * ms * 4)
	c := m.Alloc(ms * ms * 4)
	packA := m.Alloc(ms * kc * 4)
	packB := m.Alloc(kc * ms * 4)
	// Explicit transpose: strided reads defeat vectorization.
	for i := 0; i < ms; i++ {
		for j := 0; j < n; j += lanes {
			l := min(lanes, n-j)
			loadVec(m, a+uint64((i*n+j)*4), l)
			for x := 0; x < l; x++ {
				storeScalar(m, at+uint64(((j+x)*ms+i)*4))
			}
		}
	}
	// Goto GEMM: C[ms×ms] = A[ms×n]·Aᵀ[n×ms], nc = ms (output is tiny).
	for pc := 0; pc < n; pc += kc {
		kb := min(kc, n-pc)
		// Pack the B panel (Aᵀ rows pc..pc+kb): vector copies.
		for p := 0; p < kb; p++ {
			for j := 0; j < ms; j += lanes {
				l := min(lanes, ms-j)
				loadVec(m, at+uint64(((pc+p)*ms+j)*4), l)
				storeVec(m, packB+uint64((p*ms+j)*4), l)
			}
		}
		// Pack the A panel.
		for i := 0; i < ms; i++ {
			for p := 0; p < kb; p += lanes {
				l := min(lanes, kb-p)
				loadVec(m, a+uint64((i*n+pc+p)*4), l)
				storeVec(m, packA+uint64((i*kc+p)*4), l)
			}
		}
		// Micro-kernel sweep over the full output.
		for i0 := 0; i0 < ms; i0 += mr {
			mh := min(mr, ms-i0)
			for j0 := 0; j0 < ms; j0 += nr {
				w := min(nr, ms-j0)
				for p := 0; p < kb; p++ {
					for x := 0; x < mh; x++ {
						loadScalar(m, packA+uint64(((i0+x)*kc+p)*4))
					}
					loadVec(m, packB+uint64((p*ms+j0)*4), w)
					for x := 0; x < mh; x++ {
						m.VectorOp(w, 2*w)
					}
				}
				for x := 0; x < mh; x++ {
					addr := c + uint64(((i0+x)*ms+j0)*4)
					loadVec(m, addr, w)
					storeVec(m, addr, w)
				}
			}
		}
	}
}
