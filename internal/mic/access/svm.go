package access

import "fcma/internal/mic"

// SVMOptions tunes the SMO traces.
type SVMOptions struct {
	// IterFactor scales the modeled SMO iteration count: iterations =
	// IterFactor × trainSamples per fold. Default 4 (fMRI correlation
	// data is far from separable; LibSVM's eps=1e-3 takes several n of
	// iterations on it).
	IterFactor float64
	// Voxels overrides the number of voxels traced (s.V by default).
	// Tracing a couple of voxels and scaling by V/traced is the usual
	// pattern for large tasks.
	Voxels int
	// ActiveVoxels sets the machine's active thread count (one voxel per
	// thread, §3.3.3); defaults to the shape's V regardless of how many
	// voxels are traced.
	ActiveVoxels int
}

func (o SVMOptions) iters(n int) int {
	f := o.IterFactor
	if f <= 0 {
		f = 4
	}
	it := int(f * float64(n))
	if it < 1 {
		it = 1
	}
	return it
}

func (o SVMOptions) voxels(s Shape) int {
	if o.Voxels > 0 {
		return o.Voxels
	}
	return s.V
}

func (o SVMOptions) active(s Shape, m *mic.Machine) int {
	v := o.ActiveVoxels
	if v <= 0 {
		v = s.V
	}
	return min(v, m.Cfg.Threads())
}

// SVMLibSVM traces the baseline solver (Table 1/8, "LibSVM"): scalar
// double-precision SMO over node arrays. Every kernel access loads an
// index word and a double; the portable C++ never vectorizes beyond the
// occasional 2-lane double move, and with one thread pinned to one voxel
// only V of the chip's threads have work (§3.3.3).
func SVMLibSVM(m *mic.Machine, s Shape, opt SVMOptions) {
	n := s.TrainSamples
	iters := opt.iters(n)
	voxels := opt.voxels(s)
	g := m.Alloc(n * 8)
	alpha := m.Alloc(n * 8)
	nodes := m.Alloc(s.M * n * 12) // index+value per kernel entry
	qrow := m.Alloc(2 * n * 8)
	m.ActiveThreads = opt.active(s, m)
	for v := 0; v < voxels; v++ {
		for fold := 0; fold < s.Folds; fold++ {
			for it := 0; it < iters; it++ {
				// Q-row construction for the working pair from the node
				// arrays (the row cache absorbs roughly half of these).
				if it%2 == 0 {
					for r := 0; r < 2; r++ {
						for t := 0; t < n; t++ {
							m.Load(nodes+uint64(((it+r)%s.M)*n+t)*12, 4) // index word
							loadScalarF64(m, nodes+uint64(((it+r)%s.M)*n+t)*12+4)
							m.VectorOp(2, 1) // y·y·K with the 2-lane double move
							storeScalarF64(m, qrow+uint64((r*n+t)*8))
						}
					}
				}
				// WSS2: scan over G/α status, then a second scan with the
				// kernel row for the curvature term.
				for t := 0; t < n; t++ {
					loadScalarF64(m, g+uint64(t*8))
					loadScalarF64(m, alpha+uint64(t*8))
					m.VectorOp(1, 1)
				}
				for t := 0; t < n; t++ {
					loadScalarF64(m, qrow+uint64(t*8))
					loadScalarF64(m, g+uint64(t*8))
					m.VectorOp(1, 3) // grad-diff, quad, obj-diff
				}
				// Analytic solve + bookkeeping: branchy scalar code.
				for x := 0; x < 60; x++ {
					m.VectorOp(1, 1)
				}
				// Gradient update from the two cached Q rows.
				for t := 0; t < n; t++ {
					loadScalarF64(m, qrow+uint64(t*8))
					loadScalarF64(m, qrow+uint64((n+t)*8))
					loadScalarF64(m, g+uint64(t*8))
					m.VectorOp(1, 4)
					storeScalarF64(m, g+uint64(t*8))
				}
			}
		}
	}
}

// SVMOptimized traces the paper's "optimized LibSVM": the same SMO
// structure converted to single precision with vectorized hot loops. It
// keeps LibSVM's Q-matrix abstraction, so every iteration still
// materializes the working rows (read K, scale by labels, store) before
// using them, and the framework's per-iteration bookkeeping (shrinking
// checks, status updates — shuffle/mask traffic on the VPU) remains.
func SVMOptimized(m *mic.Machine, s Shape, opt SVMOptions) {
	traceDenseSMO(m, s, opt, denseSMOProfile{
		iterScale:     1.0,
		materializeQ:  true,
		fixedVecOps:   28, // framework bookkeeping: full-width shuffles/masks
		fixedScalar:   90,
		firstOrderMix: 0,
	})
}

// SVMPhi traces PhiSVM: the lean Catanzaro-style solver — kernel rows used
// in place (no Q materialization), minimal per-iteration framework code,
// and the adaptive rule spending most iterations in cheap first-order
// phases (whose horizontal reductions are scalar — hence the slightly
// lower vector intensity of Table 8) while converging in fewer iterations.
func SVMPhi(m *mic.Machine, s Shape, opt SVMOptions) {
	traceDenseSMO(m, s, opt, denseSMOProfile{
		iterScale:     0.75,
		materializeQ:  false,
		fixedVecOps:   4,
		fixedScalar:   40,
		firstOrderMix: 3, // 3 of 5 iterations use the first-order rule
	})
}

type denseSMOProfile struct {
	iterScale     float64
	materializeQ  bool
	fixedVecOps   int // per-iteration full-width non-arithmetic VPU ops
	fixedScalar   int // per-iteration scalar bookkeeping ops
	firstOrderMix int // of every 5 iterations, how many are first-order
}

// traceDenseSMO is the shared dense float32 solver trace.
func traceDenseSMO(m *mic.Machine, s Shape, opt SVMOptions, prof denseSMOProfile) {
	lanes := m.Cfg.VectorLanes
	n := s.TrainSamples
	iters := int(float64(opt.iters(n)) * prof.iterScale)
	if iters < 1 {
		iters = 1
	}
	voxels := opt.voxels(s)
	g := m.Alloc(n * 4)
	alpha := m.Alloc(n * 4)
	k := m.Alloc(s.M * s.M * 4)
	qbuf := m.Alloc(2 * n * 4)
	m.ActiveThreads = opt.active(s, m)
	for v := 0; v < voxels; v++ {
		for fold := 0; fold < s.Folds; fold++ {
			for it := 0; it < iters; it++ {
				fo := prof.firstOrderMix > 0 && it%5 < prof.firstOrderMix
				if prof.materializeQ {
					// LibSVM's get_Q: read the kernel rows, scale by
					// labels, store into the Q buffer.
					for r := 0; r < 2; r++ {
						row := k + uint64(((it+r)%s.M)*s.M*4)
						for t := 0; t < n; t += lanes {
							l := min(lanes, n-t)
							loadVec(m, row+uint64(t*4), l)
							m.VectorOp(l, l)
							storeVec(m, qbuf+uint64((r*n+t)*4), l)
						}
					}
				}
				// Selection scan over G (+α bounds) with vector max
				// reductions and a scalar horizontal tail.
				for t := 0; t < n; t += lanes {
					l := min(lanes, n-t)
					loadVec(m, g+uint64(t*4), l)
					loadVec(m, alpha+uint64(t*4), l)
					m.VectorOp(l, l)
				}
				for x := 0; x < 5; x++ {
					m.VectorOp(1, 1)
				}
				if !fo {
					// WSS2's second scan walks the selected kernel row.
					row := k + uint64((it%s.M)*s.M*4)
					for t := 0; t < n; t += lanes {
						l := min(lanes, n-t)
						loadVec(m, row+uint64(t*4), l)
						loadVec(m, g+uint64(t*4), l)
						m.VectorOp(l, 3*l)
					}
					for x := 0; x < 5; x++ {
						m.VectorOp(1, 1)
					}
				} else {
					// First-order min scan: cheaper (G only), but the
					// reduction tail is scalar.
					for t := 0; t < n; t += lanes {
						l := min(lanes, n-t)
						loadVec(m, g+uint64(t*4), l)
						m.VectorOp(l, l)
					}
					for x := 0; x < 10; x++ {
						m.VectorOp(1, 1)
					}
				}
				// Analytic 2-variable solve: scalar.
				for x := 0; x < 12; x++ {
					m.VectorOp(1, 1)
				}
				// Per-iteration framework overhead.
				for x := 0; x < prof.fixedVecOps; x++ {
					m.VectorOp(lanes, 0) // shuffles/masks: full width, no flops
				}
				for x := 0; x < prof.fixedScalar; x++ {
					m.VectorOp(1, 0)
				}
				// Gradient update from the two working rows.
				ri := k + uint64((it%s.M)*s.M*4)
				rj := k + uint64(((it+1)%s.M)*s.M*4)
				if prof.materializeQ {
					ri, rj = qbuf, qbuf+uint64(n*4)
				}
				for t := 0; t < n; t += lanes {
					l := min(lanes, n-t)
					loadVec(m, ri+uint64(t*4), l)
					loadVec(m, rj+uint64(t*4), l)
					loadVec(m, g+uint64(t*4), l)
					m.VectorOp(l, 2*l)
					m.VectorOp(l, 2*l)
					storeVec(m, g+uint64(t*4), l)
				}
			}
		}
	}
}

func loadScalarF64(m *mic.Machine, addr uint64) {
	m.Load(addr, 8)
	m.VectorOp(1, 0)
}

func storeScalarF64(m *mic.Machine, addr uint64) {
	m.Store(addr, 8)
	m.VectorOp(1, 0)
}
