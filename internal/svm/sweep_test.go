package svm

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fcma/internal/blas"
	"fcma/internal/corr"
	"fcma/internal/fmri"
	"fcma/internal/tensor"
)

// The fused first-order iteration is pinned to the unfused one bit for
// bit, and the assembly loop to the Go loop: every test here runs the same
// state down two paths and demands equal bits — float64 α, float32 v,
// 32-bit masks; NaN against NaN, the payload aside — and the same selected
// pair. That pin is what lets every equality check above this package —
// cluster == local, served == direct, repeat identity — vouch for stage
// 3's assembly too.

// eachSweepPath runs f as a subtest on the Go loop and on the assembly
// loop; the AVX2 half skips where the probe says the host has none. The
// assembly half runs the mat-vec on YMM vectors; setPath reaches ZMM.
func eachSweepPath(t *testing.T, f func(t *testing.T)) {
	oldAVX2, oldZMM := useAVX2, useZMM
	defer func() { useAVX2, useZMM = oldAVX2, oldZMM }()
	t.Run("go", func(t *testing.T) {
		useAVX2, useZMM = false, false
		f(t)
	})
	t.Run("avx2", func(t *testing.T) {
		if !blas.HasAVX2() {
			t.Skip("host has no AVX2")
		}
		useAVX2, useZMM = true, false
		f(t)
	})
}

// hostZMM is the probe's verdict on the mat-vec's ZMM loops, read before
// any test rewrites useZMM.
var hostZMM = useZMM

// paths are the dispatch settings the phase's pins compare — Go, YMM,
// ZMM — and setPath selects one, reporting false where the host cannot
// run it.
var paths = []string{"go", "avx2", "avx512"}

func setPath(p string) bool {
	useAVX2, useZMM = p != "go", p == "avx512"
	return p == "go" || p == "avx2" && blas.HasAVX2() || hostZMM
}

// sameFloat is equality of bits at either width: equal values with the
// same sign bit, or two NaNs.
func sameFloat[F float32 | float64](a, b F) bool {
	return (a == b && math.Signbit(float64(a)) == math.Signbit(float64(b))) || (a != a && b != b)
}

func requireSameFloats[F float32 | float64](t *testing.T, what string, got, want []F) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s[%d] = %g (%#016x), want %g (%#016x)", what, i, got[i],
				math.Float64bits(float64(got[i])), want[i], math.Float64bits(float64(want[i])))
		}
	}
}

// (a) Compaction: whatever the index list, the dense scratch holds the
// training sub-kernel, read from a strided view of a larger buffer.
func TestResetCompactsSubKernel(t *testing.T) {
	const M = 24
	rng := rand.New(rand.NewSource(3))
	big := tensor.NewMatrix(M+3, M+5)
	for i := range big.Data {
		big.Data[i] = rng.Float32()*2 - 1
	}
	K := big.View(2, 1, M, M)
	labels := make([]int, M)
	subjects := make([]int, M)
	for i := range labels {
		labels[i] = rng.Intn(2)
		subjects[i] = i / 6
	}
	var reversed, strided, duplicated []int
	for i := M - 1; i >= 0; i-- {
		reversed = append(reversed, i)
	}
	for i := 1; i < M; i += 3 {
		strided = append(strided, i)
	}
	for _, i := range []int{5, 5, 6, 6, 7, 2, 2, 3} {
		duplicated = append(duplicated, i)
	}
	lists := map[string][]int{
		"loso-first":  LeaveOneSubjectOutFolds(subjects)[0].Train,
		"loso-middle": LeaveOneSubjectOutFolds(subjects)[2].Train,
		"loso-last":   LeaveOneSubjectOutFolds(subjects)[3].Train,
		"kfold":       KFolds(M, 5)[1].Train,
		"all":         allIdx(M),
		"reversed":    reversed,
		"strided":     strided,
		"shuffled":    rng.Perm(M),
		"duplicated":  duplicated,
		"one":         {7},
	}
	atMostTwoRuns := map[string]bool{"loso-first": true, "loso-middle": true, "loso-last": true, "kfold": true, "all": true}
	// One solver for every list, in map order: a reset must not see what
	// the one before it left in the scratch.
	s := new(smo32)
	for name, idx := range lists {
		s.reset(K, labels, idx, Params{})
		n := len(idx)
		if s.n != n || len(s.kd) != n*n || len(s.y) != n || len(s.alpha) != n || len(s.v) != n || len(s.qd) != n || len(s.outUp) != n || len(s.outLow) != n {
			t.Fatalf("%s: scratch not sized to n = %d", name, n)
		}
		if atMostTwoRuns[name] && len(s.runs) > 2 {
			t.Fatalf("%s: compacted in %d runs, want at most 2", name, len(s.runs))
		}
		var byClass []int
		for _, want := range []float64{1, -1} {
			for i := range idx {
				if s.y[i] == want {
					byClass = append(byClass, i)
				}
			}
		}
		if fmt.Sprint(s.byClass[:n]) != fmt.Sprint(byClass) {
			t.Fatalf("%s: byClass = %v, want the positive positions then the negative ones, %v", name, s.byClass[:n], byClass)
		}
		for i := range idx {
			for k := range idx {
				if got, want := s.kd[i*n+k], K.At(idx[i], idx[k]); math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("%s: kd[%d][%d] = %g, want K[%d][%d] = %g", name, i, k, got, idx[i], idx[k], want)
				}
			}
			// The start point itself is TestSeedInvariants' subject; here
			// the masks must be the membership the seeded α implies.
			if s.qd[i] != float64(K.At(idx[i], idx[i])) || s.y[i] != float64(2*labels[idx[i]]-1) {
				t.Fatalf("%s: position %d starts at qd %g y %g", name, i, s.qd[i], s.y[i])
			}
			if outUp, outLow := outside(s.y[i], s.alpha[i], s.c); s.outUp[i] != outUp || s.outLow[i] != outLow {
				t.Fatalf("%s: position %d (y %g, α %g) starts with masks outUp %#x outLow %#x", name, i, s.y[i], s.alpha[i], s.outUp[i], s.outLow[i])
			}
		}
	}
}

// sweepProblem is an n-sample linear-kernel problem that does not
// separate: 12 noisy features, a fraction pos of the labels positive.
func sweepProblem(rng *rand.Rand, n int, pos float64) (*tensor.Matrix, []int) {
	X := tensor.NewMatrix(n, 12)
	labels := make([]int, n)
	for i := range labels {
		if float64(i) < pos*float64(n) {
			labels[i] = 1
		}
	}
	rng.Shuffle(n, func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
	for i := 0; i < n; i++ {
		row := X.Row(i)
		for j := range row {
			row[j] = float32(rng.NormFloat64())
		}
		row[0] += float32(labels[i]) - 0.5
	}
	return PrecomputeKernel(X), labels
}

// solveUnfused is solveFused with the first-order loop as it was before
// the sweep: a plain selectFirstOrder and an update per iteration — for
// 2n iterations, then the conjugate-gradient phase if the fold is still
// open, then on to MaxIter. It is the oracle the fused Go loop and
// solveAVX2 are pinned to.
func (s *smo32) solveUnfused() (iters, steps int, converged bool) {
	budget := min(2*s.n, s.maxIter)
	for iters < s.maxIter {
		i, j, ok := s.selectFirstOrder()
		if !ok {
			return iters, steps, true
		}
		if iters == budget {
			steps, budget = s.conjugate(), s.maxIter
			continue
		}
		s.update(i, j)
		iters++
	}
	return iters, steps, false
}

// solveSMO is the first-order loop alone, to MaxIter: the solver without
// its conjugate-gradient phase, for the tests of what SMO itself does.
func (s *smo32) solveSMO() (iters int, converged bool) {
	i, j, ok := s.selectFirstOrder()
	iters, _ = s.iterate(i, j, ok, 0, s.maxIter)
	return iters, iters < s.maxIter
}

// iterate is solveFused's first-order loop on the current path, from the
// selection (i, j, ok) and iters done until the fold closes or budget
// iterations are done; it returns the count and whether the fold is
// still open.
func (s *smo32) iterate(i, j int, ok bool, iters, budget int) (int, bool) {
	for ok && iters < budget {
		done := 1
		if useAVX2 {
			done, i, j, ok = solveAVX2(s, i, j, min(budget-iters, solveChunk))
		} else if cyi, cyj, moved := s.step(i, j); moved {
			i, j, ok = s.sweep(i, j, cyi, cyj)
		}
		iters += done
	}
	return iters, ok
}

// update is one unfused iteration's second half: step, then gradient
// maintenance.
func (s *smo32) update(i, j int) {
	if cyi, cyj, moved := s.step(i, j); moved {
		s.addGradient(i, j, cyi, cyj)
	}
}

// addGradient is G_t += Q_ti·Δαi + Q_tj·Δαj over the two dense kernel
// rows, read with unit stride — in v, where Q's labels cancel, in float32
// as the state is: each product rounded, then their sum, then v's.
func (s *smo32) addGradient(i, j int, cyi, cyj float32) {
	ki, kj := s.row(i), s.row(j)
	for t := range s.v {
		s.v[t] -= float32(cyi*ki[t]) + float32(cyj*kj[t])
	}
}

// (b) Fused vs unfused: solve() reaches the state of solveUnfused — a plain
// selectFirstOrder and an update per iteration, the first-order solver as
// it was before the sweep, over the same float32 v, with the same
// conjugate-gradient phase after 2n iterations — in the same iteration
// and mat-vec counts, on both paths.
func TestFusedSolveMatchesUnfused(t *testing.T) {
	sizes := []int{16, 17, 23, 36, 80, 204}
	for n := 1; n <= 13; n++ {
		sizes = append(sizes, n)
	}
	// The cap bites on the hardest problems, which pins the
	// out-of-iterations exit too — reached over three assembly calls.
	params := Params{MaxIter: 20000}
	capped := 0
	for _, n := range sizes {
		for _, pos := range []float64{0.5, 0.2} {
			for _, C := range []float64{1e-4, 1, 10} {
				rng := rand.New(rand.NewSource(int64(n)))
				K, labels := sweepProblem(rng, n, pos)
				params.C = C
				want := new(smo32)
				want.reset(K, labels, allIdx(n), params)
				wantIters, wantSteps, _ := want.solveUnfused()
				if wantIters == params.MaxIter {
					capped++
				}
				t.Run(fmt.Sprintf("n%d/pos%g/C%g", n, pos, C), func(t *testing.T) {
					eachSweepPath(t, func(t *testing.T) {
						got := new(smo32)
						got.reset(K, labels, allIdx(n), params)
						iters, steps, err := got.solve()
						if (err != nil) != (wantIters == params.MaxIter) {
							t.Fatalf("solve error %v after %d iterations; oracle took %d", err, iters, wantIters)
						}
						if iters != wantIters || steps != wantSteps {
							t.Fatalf("fused solve took %d iterations and %d mat-vecs, unfused %d and %d", iters, steps, wantIters, wantSteps)
						}
						requireSameFloats(t, "alpha", got.alpha, want.alpha)
						requireSameFloats(t, "v", got.v, want.v)
						requireSameMasks(t, got, want)
						if !sameFloat(got.threshold(), want.threshold()) {
							t.Fatalf("rho = %g, want %g", got.threshold(), want.threshold())
						}
					})
				})
			}
		}
	}
	if capped == 0 || params.MaxIter < 2*solveChunk {
		t.Fatal("no solve of the grid reaches MaxIter over several assembly calls: the chunked loop is not pinned across calls")
	}
}

func requireSameMasks(t *testing.T, got, want *smo32) {
	t.Helper()
	for k := range want.outUp {
		if got.outUp[k] != want.outUp[k] || got.outLow[k] != want.outLow[k] {
			t.Fatalf("masks[%d] = outUp %#x outLow %#x, want outUp %#x outLow %#x",
				k, got.outUp[k], got.outLow[k], want.outUp[k], want.outLow[k])
		}
	}
}

// sweepState builds a solver mid-solve from the state a sweep reads: row i
// of its dense kernel is ki, row j is kj (i = 0, j = 1, or both 0 when
// n = 1).
func sweepState(v []float32, outUp, outLow []uint32, ki, kj []float32) (s *smo32, i, j int) {
	n := len(v)
	s = &smo32{n: n, eps: DefaultEps, kd: make([]float32, n*n), v: append([]float32(nil), v...), outUp: outUp, outLow: outLow}
	j = min(1, n-1)
	copy(s.row(j), kj)
	copy(s.row(i), ki)
	return s, i, j
}

// sweepOnPath is one sweep on the path useAVX2 names.
func sweepOnPath(s *smo32, i, j int, cyi, cyj float32) (int, int, bool) {
	if useAVX2 {
		return sweepOnceAVX2(s, i, j, cyi, cyj)
	}
	return s.sweep(i, j, cyi, cyj)
}

// requireSweepMatchesOracle runs one sweep from the given state on the
// current path and holds it to addGradient + selectFirstOrder.
func requireSweepMatchesOracle(t *testing.T, v []float32, outUp, outLow []uint32, ki, kj []float32, cyi, cyj float32) {
	t.Helper()
	want, i, j := sweepState(v, outUp, outLow, ki, kj)
	want.addGradient(i, j, cyi, cyj)
	wi, wj, wok := want.selectFirstOrder()
	got, _, _ := sweepState(v, outUp, outLow, ki, kj)
	gi, gj, gok := sweepOnPath(got, i, j, cyi, cyj)
	if gi != wi || gj != wj || gok != wok {
		t.Fatalf("sweep selected (%d, %d, %v), selectFirstOrder (%d, %d, %v)\noutUp = %x\noutLow = %x\nv = %v",
			gi, gj, gok, wi, wj, wok, outUp, outLow, want.v)
	}
	requireSameFloats(t, "v", got.v, want.v)
}

// (b, continued) Constructed ties and special values, one sweep each: the
// last index must win among equals in every arrangement of the assembly's
// lanes — two eight-lane scans per sixteen elements, an eight-wide tail
// step, a scalar tail of up to seven — including when the only candidate
// sits in a tail. The sizes run through every n mod 16.
func TestSweepTieBreaks(t *testing.T) {
	negZero := math.Copysign(0, -1)
	inf := math.Inf(1)
	const C = 1.0
	// A case gives sample t of n its label, multiplier and gradient; the
	// sweep sees v = −y·g and the membership (y, α, C) implies.
	type state struct{ y, alpha, g float64 }
	free := func(g float64) state { return state{1, 0.5, g} } // in both sets, v = −g
	cases := map[string]func(t, n int) state{
		"all g equal": func(t, n int) state {
			return state{float64(2*(t%2) - 1), 0.5, 0.25}
		},
		"all g equal, one class": func(t, n int) state { return free(-3) },
		"signed zeros": func(t, n int) state {
			return state{float64(2*(t%2) - 1), 0.5, []float64{0, negZero, negZero, 0, 0}[t%5]}
		},
		"infinities": func(t, n int) state {
			return state{float64(2*(t/2%2) - 1), 0.5, []float64{inf, -inf, 1, -inf, inf, -1, inf}[t%7]}
		},
		"all minus infinity": func(t, n int) state { return free(inf) },
		"NaN entries": func(t, n int) state {
			return state{float64(2*(t%2) - 1), 0.5, []float64{math.NaN(), 1, 1, math.NaN(), -2}[t%5]}
		},
		"all NaN": func(t, n int) state { return state{float64(2*(t%2) - 1), 0.5, math.NaN()} },
		"every α at a bound": func(t, n int) state {
			return state{float64(2*(t%2) - 1), []float64{0, 0, C, C, 0, C}[t%6], float64(t%3) - 1}
		},
		"α past the bounds and NaN": func(t, n int) state {
			return state{float64(2*(t%2) - 1), []float64{-1, 2, math.NaN(), 0.5}[t%4], 0.5}
		},
		// Elements t and t+8 of a sixteen-wide step share a lane of the
		// two scans; the extremes repeat every eight, so the last block
		// wins.
		"equal extremes in both scans": func(t, n int) state {
			return free([]float64{0, -2, 3, 0, 0, 0, 0, 0}[t%8])
		},
		"equal extremes in two lanes of one scan": func(t, n int) state {
			return free([]float64{-2, 0, -2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 3}[t%16])
		},
		"equal extremes across scans and lanes": func(t, n int) state {
			return free([]float64{0, 3, -2, 0, 0, 0, 0, 0, -2, 0, 0, 0, 0, 0, 0, 3}[t%16])
		},
		"lone I_up member is last": func(t, n int) state {
			if t == n-1 {
				return state{1, 0, 7} // y = +1, α = 0 < C: in I_up only
			}
			return state{1, C, float64(t)} // y = +1, α = C: in I_low only
		},
		"lone I_low member is last": func(t, n int) state {
			if t == n-1 {
				return state{-1, 0, 7}
			}
			return state{-1, C, float64(t)}
		},
		"lone I_up member is first": func(t, n int) state {
			if t == 0 {
				return state{1, 0, 7}
			}
			return state{1, C, 7}
		},
		"I_low is empty": func(t, n int) state { return state{1, 0, float64(t % 3)} },
		"I_up is empty":  func(t, n int) state { return state{1, C, float64(t % 3)} },
	}
	sizes := []int{40, 67, 80}
	for n := 1; n <= 33; n++ { // n mod 16 = 0…15, with zero to two sixteen-wide steps
		sizes = append(sizes, n)
	}
	sweepBothRows := func(t *testing.T, n int, at func(t, n int) state) {
		t.Helper()
		v, outUp, outLow := make([]float32, n), make([]uint32, n), make([]uint32, n)
		for k := 0; k < n; k++ {
			st := at(k, n)
			v[k] = float32(-st.y * st.g)
			outUp[k], outLow[k] = outside(st.y, st.alpha, C)
		}
		// Zero rows leave v where the case put it; equal rows move every
		// v by the same amount.
		rows := make([]float32, n)
		requireSweepMatchesOracle(t, v, outUp, outLow, rows, rows, 0.5, -0.25)
		for k := range rows {
			rows[k] = 1
		}
		requireSweepMatchesOracle(t, v, outUp, outLow, rows, rows, 0.5, -0.25)
	}
	eachSweepPath(t, func(t *testing.T) {
		for name, at := range cases {
			for _, n := range sizes {
				t.Run(fmt.Sprintf("%s/n%d", name, n), func(t *testing.T) { sweepBothRows(t, n, at) })
			}
		}
		// A lone member of I_up, then of I_low, at every position p of
		// every size — so in each lane of either scan, in the eight-wide
		// tail and in each slot of the scalar tail — among ties, and at the
		// value an empty lane holds.
		for _, n := range sizes {
			for p := 0; p < n; p++ {
				for _, g := range []float64{7, inf, -inf} {
					for _, alone := range []float64{0, C} { // y = +1: α = 0 is in I_up only, α = C in I_low only
						sweepBothRows(t, n, func(t, _ int) state {
							if t == p {
								return state{1, alone, g}
							}
							return state{1, C - alone, 7}
						})
					}
				}
			}
		}
	})
}

// (c) One sweep from raw bit patterns: NaNs, infinities and denormals in
// v, the kernel rows and the coefficients, and any pair of masks.
func FuzzSMOSweepMatchesGo(f *testing.F) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{1, 7, 9, 16, 25, 40} {
		b := make([]byte, n*sweepFuzzStride)
		for i := 0; i < n; i++ {
			e := b[i*sweepFuzzStride:]
			binary.LittleEndian.PutUint32(e, math.Float32bits(float32(rng.NormFloat64())))
			binary.LittleEndian.PutUint32(e[4:], math.Float32bits(float32(rng.NormFloat64())))
			binary.LittleEndian.PutUint32(e[8:], math.Float32bits(float32(rng.NormFloat64())))
			e[12] = byte(rng.Intn(4))
		}
		f.Add(math.Float32bits(float32(rng.NormFloat64())), math.Float32bits(float32(rng.NormFloat64())), b)
	}
	f.Fuzz(func(t *testing.T, cyiBits, cyjBits uint32, data []byte) {
		if !blas.HasAVX2() {
			t.Skip("host has no AVX2: the Go sweep is the only path")
		}
		n := min(len(data)/sweepFuzzStride, 80)
		if n == 0 {
			t.Skip("not enough data for one element")
		}
		v, outUp, outLow := make([]float32, n), make([]uint32, n), make([]uint32, n)
		ki, kj := make([]float32, n), make([]float32, n)
		for i := 0; i < n; i++ {
			e := data[i*sweepFuzzStride:]
			v[i] = math.Float32frombits(binary.LittleEndian.Uint32(e))
			ki[i] = math.Float32frombits(binary.LittleEndian.Uint32(e[4:]))
			kj[i] = math.Float32frombits(binary.LittleEndian.Uint32(e[8:]))
			outUp[i], outLow[i] = decodeMasks(e[12])
		}
		cyi, cyj := math.Float32frombits(cyiBits), math.Float32frombits(cyjBits)
		want, i, j := sweepState(v, outUp, outLow, ki, kj)
		wi, wj, wok := want.sweep(i, j, cyi, cyj)
		got, _, _ := sweepState(v, outUp, outLow, ki, kj)
		gi, gj, gok := sweepOnceAVX2(got, i, j, cyi, cyj)
		if gi != wi || gj != wj || gok != wok {
			t.Fatalf("AVX2 sweep selected (%d, %d, %v), Go sweep (%d, %d, %v)", gi, gj, gok, wi, wj, wok)
		}
		requireSameFloats(t, "v", got.v, want.v)
	})
}

// sweepFuzzStride is one fuzzed element: v, ki and kj as float32 bits, one
// byte whose two low bits are the masks.
const sweepFuzzStride = 4 + 4 + 4 + 1

// decodeMasks reads the masks outUp and outLow of one sample from the two
// low bits of b: each all ones or zero, the only values step writes.
func decodeMasks(b byte) (outUp, outLow uint32) {
	return -uint32(b & 1), -uint32(b >> 1 & 1)
}

// iterateOnPath is one iteration of solveFused's loop on the path useAVX2
// names: step(i, j), then the sweep if α moved.
func iterateOnPath(s *smo32, i, j int) (int, int, bool) {
	if useAVX2 {
		_, i, j, ok := solveAVX2(s, i, j, 1)
		return i, j, ok
	}
	if cyi, cyj, moved := s.step(i, j); moved {
		return s.sweep(i, j, cyi, cyj)
	}
	return i, j, true
}

// (c, continued) A whole fold from raw kernel bit patterns: the assembly
// loop — step, sweep and convergence test — against the Go loop, on
// kernels no dataset produces (NaN and infinite entries, negative
// curvature, denormals). Past the kernel's 4n² bytes, 5n more replace the
// seeded state the solve starts from: v as raw float32 bits, then one
// mask byte per sample.
func FuzzSolveLoopMatchesGo(f *testing.F) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{2, 5, 8, 12} {
		K, labels := sweepProblem(rng, n, 0.5)
		b := make([]byte, 4*n*n)
		var y uint16
		for i, k := range K.Data {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(k))
		}
		for i, l := range labels {
			y |= uint16(l) << i
		}
		f.Add(y, uint8(n%3), b)
		b = make([]byte, 4*n*n+5*n)
		rng.Read(b)
		f.Add(y, uint8(n%3), b)
	}
	f.Fuzz(func(t *testing.T, y uint16, cSel uint8, data []byte) {
		if !blas.HasAVX2() {
			t.Skip("host has no AVX2: the Go loop is the only path")
		}
		n := 0
		for n < 12 && 4*(n+1)*(n+1) <= len(data) {
			n++
		}
		if n == 0 {
			t.Skip("not enough data for one sample")
		}
		K := tensor.NewMatrix(n, n)
		for i := range K.Data {
			K.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		labels := make([]int, n)
		for i := range labels {
			labels[i] = int(y >> i & 1)
		}
		params := Params{C: []float64{1e-4, 1, 10}[cSel%3], MaxIter: 100}
		old := useAVX2
		defer func() { useAVX2 = old }()
		var s [2]smo32
		var iters, steps [2]int
		var converged [2]bool
		state := data[4*n*n:]
		for p := range s {
			useAVX2 = p == 1
			s[p].reset(K, labels, allIdx(n), params)
			if len(state) >= 5*n {
				for k := range n {
					s[p].v[k] = math.Float32frombits(binary.LittleEndian.Uint32(state[4*k:]))
					s[p].outUp[k], s[p].outLow[k] = decodeMasks(state[4*n+k])
				}
			}
			iters[p], steps[p], converged[p] = s[p].solveFused()
		}
		if iters[0] != iters[1] || steps[0] != steps[1] || converged[0] != converged[1] {
			t.Fatalf("assembly loop: %d iterations, %d mat-vecs, converged %v; Go loop: %d, %d, %v",
				iters[1], steps[1], converged[1], iters[0], steps[0], converged[0])
		}
		requireSameFloats(t, "alpha", s[1].alpha, s[0].alpha)
		requireSameFloats(t, "v", s[1].v, s[0].v)
		requireSameMasks(t, &s[1], &s[0])
	})
}

// (c, continued) The masks are state the sweep trusts and only step
// maintains: after every iteration of a solve, on both paths, they are
// the membership (y, α, C) implies — with the box far inside the
// unconstrained solution, around it, and outside it.
func TestMasksTrackMembership(t *testing.T) {
	for _, n := range []int{7, 36, 80} {
		for _, C := range []float64{1e-4, 1, 10} {
			K, labels := sweepProblem(rand.New(rand.NewSource(int64(n))), n, 0.4)
			t.Run(fmt.Sprintf("n%d/C%g", n, C), func(t *testing.T) {
				eachSweepPath(t, func(t *testing.T) {
					s := new(smo32)
					s.reset(K, labels, allIdx(n), Params{C: C})
					i, j, ok := s.selectFirstOrder()
					for iter := 0; ok && iter < 5000; iter++ {
						i, j, ok = iterateOnPath(s, i, j)
						for k := range s.outUp {
							if outUp, outLow := outside(s.y[k], s.alpha[k], s.c); s.outUp[k] != outUp || s.outLow[k] != outLow {
								t.Fatalf("iteration %d: masks[%d] = outUp %#x outLow %#x with y %g α %g, want outUp %#x outLow %#x",
									iter, k, s.outUp[k], s.outLow[k], s.y[k], s.alpha[k], outUp, outLow)
							}
						}
					}
				})
			})
		}
	}
}

// gSolver is the first-order solver as it was before the state became v:
// it keeps the dual gradient g — in float32, as the solver keeps v —
// multiplies by the label wherever a rule needs −y·g, and tests α against
// the box in every scan. It shares the compacted kernel of the solver it
// was made from, and starts where reset left that solver: its α, and
// g = −y·v (exact, for y = ±1).
type gSolver struct {
	*smo32
	alpha []float64
	g     []float32
}

func newGSolver(s *smo32) *gSolver {
	r := &gSolver{smo32: s, alpha: append([]float64(nil), s.alpha...), g: make([]float32, s.n)}
	for i, v := range s.v {
		r.g[i] = float32(-s.y[i]) * v
	}
	return r
}

func (r *gSolver) solve() (iters int) {
	for ; iters < r.maxIter; iters++ {
		gmax, gmin, i, j := float32(math.Inf(-1)), float32(math.Inf(1)), -1, -1
		for t, yt := range r.y {
			v := float32(-yt) * r.g[t]
			if inUp(yt, r.alpha[t], r.c) && v >= gmax {
				gmax, i = v, t
			}
			if inUp(-yt, r.alpha[t], r.c) && v <= gmin {
				gmin, j = v, t
			}
		}
		if i == -1 || j == -1 || float64(gmax)-float64(gmin) < r.eps {
			return iters
		}
		r.step(i, j)
	}
	return iters
}

// step is LibSVM's two-variable update in float64 and gradient
// maintenance in the float32 g.
func (r *gSolver) step(i, j int) {
	c, alpha, g := r.c, r.alpha, r.g
	yi, yj := r.y[i], r.y[j]
	oldAi, oldAj := alpha[i], alpha[j]
	quad := r.qd[i] + r.qd[j] - 2*float64(r.kd[i*r.n+j])
	if quad <= 0 {
		quad = tau
	}
	if yi != yj {
		delta := (-float64(g[i]) - float64(g[j])) / quad
		diff := alpha[i] - alpha[j]
		alpha[i] += delta
		alpha[j] += delta
		if diff > 0 {
			if alpha[j] < 0 {
				alpha[j], alpha[i] = 0, diff
			}
		} else if alpha[i] < 0 {
			alpha[i], alpha[j] = 0, -diff
		}
		if diff > 0 {
			if alpha[i] > c {
				alpha[i], alpha[j] = c, c-diff
			}
		} else if alpha[j] > c {
			alpha[j], alpha[i] = c, c+diff
		}
	} else {
		delta := (float64(g[i]) - float64(g[j])) / quad
		sum := alpha[i] + alpha[j]
		alpha[i] -= delta
		alpha[j] += delta
		if sum > c {
			if alpha[i] > c {
				alpha[i], alpha[j] = c, sum-c
			}
		} else if alpha[j] < 0 {
			alpha[j], alpha[i] = 0, sum
		}
		if sum > c {
			if alpha[j] > c {
				alpha[j], alpha[i] = c, sum-c
			}
		} else if alpha[i] < 0 {
			alpha[i], alpha[j] = 0, sum
		}
	}
	cyi, cyj := float32((alpha[i]-oldAi)*yi), float32((alpha[j]-oldAj)*yj)
	ki, kj := r.row(i), r.row(j)
	for t, yt := range r.y {
		g[t] += float32(float32(yt) * (float32(cyi*ki[t]) + float32(cyj*kj[t])))
	}
}

// (c, continued) The change of state changed no iterate: on every fold of
// the benchmark's shapes the first-order loop's α is the float32 g-state
// solver's and its v read back as −y·v is that solver's g, bit for bit —
// exact zeros aside, whose sign v does not keep and nothing reads. Both
// run SMO alone (solveSMO), which the g-state solver has no phase after.
func TestVStateMatchesGradientState(t *testing.T) {
	for _, sh := range cvShapes[:3] {
		K, labels, folds := shapeProblem(t, sh.voxels, sh.subjects, sh.epochsPerSubject)
		t.Run(sh.name, func(t *testing.T) {
			eachSweepPath(t, func(t *testing.T) {
				s := new(smo32)
				for fi, f := range folds {
					s.reset(K, labels, f.Train, Params{})
					want := newGSolver(s)
					wantIters := want.solve()
					iters, converged := s.solveSMO()
					if !converged || iters != wantIters {
						t.Fatalf("fold %d: %d iterations (converged %v), the g-state solver took %d", fi, iters, converged, wantIters)
					}
					requireSameFloats(t, "alpha", s.alpha, want.alpha)
					for k, g := range want.g {
						if got := float32(-s.y[k]) * s.v[k]; !sameFloat(got, g) && !(got == 0 && g == 0) {
							t.Fatalf("fold %d: −y·v[%d] = %g (%#08x), want g = %g (%#08x)", fi, k,
								got, math.Float32bits(got), g, math.Float32bits(g))
						}
					}
				}
			})
		})
	}
}

// shapeProblem builds one voxel's cross-validation problem as production
// does: a synthetic dataset through the merged correlate+normalize stage
// and the syrk, with k-fold over epochs for one subject and
// leave-one-subject-out otherwise. Voxel 1 is a noise voxel, as most of
// a brain is.
func shapeProblem(tb testing.TB, voxels, subjects, epochsPerSubject int) (*tensor.Matrix, []int, []Fold) {
	tb.Helper()
	d, err := fmri.Generate(fmri.Spec{
		Name: "shape", Voxels: voxels, Subjects: subjects, EpochsPerSubject: epochsPerSubject,
		EpochLen: 12, RestLen: 6, SignalVoxels: voxels / 8, Coupling: 0.4, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	st, err := corr.BuildEpochStackContext(context.Background(), d, 1)
	if err != nil {
		tb.Fatal(err)
	}
	buf, err := (&corr.Pipeline{Merged: true, Workers: 1}).RunContext(context.Background(), st, 1, 1)
	if err != nil {
		tb.Fatal(err)
	}
	K := PrecomputeKernel(buf.View(0, 0, st.M(), st.N))
	if subjects == 1 {
		return K, d.Labels(), KFolds(st.M(), min(6, st.M()/2))
	}
	return K, d.Labels(), LeaveOneSubjectOutFolds(d.SubjectOfEpoch())
}

// cvShapes are the fold shapes of the repo benchmark's three library
// workloads, then the paper's two: n is the training-set size of one fold.
// At n = 522 the compacted kernel (1.1 MB) no longer fits L1 and lives in
// L2.
var cvShapes = []struct {
	name                               string
	voxels, subjects, epochsPerSubject int
}{
	{"facescene_n36", 640, 4, 12},
	{"attention_n80", 256, 6, 16},
	{"online_n10", 1024, 1, 12},
	{"paper_facescene_n204", 256, 18, 12},
	{"paper_attention_n522", 1024, 30, 18},
}

// What the seed relies on, counted: with C = 1 on these kernels (K_ii ≈ N)
// no α of any fold reaches the box, so every fold is a hard-margin
// problem, and most samples are support vectors.
func TestBoxInactiveAtBenchmarkShapes(t *testing.T) {
	for _, sh := range cvShapes {
		if testing.Short() && sh.subjects > 6 {
			continue
		}
		K, labels, folds := shapeProblem(t, sh.voxels, sh.subjects, sh.epochsPerSubject)
		s := new(smo32)
		var atC, sv, total int
		for fi, f := range folds {
			s.reset(K, labels, f.Train, Params{})
			if _, _, err := s.solve(); err != nil {
				t.Fatalf("%s fold %d: %v", sh.name, fi, err)
			}
			for _, a := range s.alpha {
				total++
				if a >= s.c {
					atC++
				}
				if a > 0 {
					sv++
				}
			}
		}
		t.Logf("%s: %d of %d α at C, %d support vectors (%.1f %%)", sh.name, atC, total, sv, 100*float64(sv)/float64(total))
		if atC != 0 {
			t.Errorf("%s: %d of %d α reached C = %g", sh.name, atC, total, s.c)
		}
	}
}

// (d) A warm cross-validation call on the pooled solver allocates
// nothing: no per-fold slices, no Model.
func TestCrossValidateWarmAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops entries at random")
	}
	ctx := context.Background()
	var tr KernelTrainer = PhiSVM{}
	for _, sh := range cvShapes[:3] { // the benchmark's shapes
		K, labels, folds := shapeProblem(t, sh.voxels, sh.subjects, sh.epochsPerSubject)
		t.Run(sh.name, func(t *testing.T) {
			eachSweepPath(t, func(t *testing.T) {
				if _, err := CrossValidateContext(ctx, tr, K, labels, folds); err != nil { // warm the pool
					t.Fatal(err)
				}
				if n := testing.AllocsPerRun(10, func() {
					if _, err := CrossValidateContext(ctx, tr, K, labels, folds); err != nil {
						t.Fatal(err)
					}
				}); n != 0 {
					t.Fatalf("warm CrossValidateContext allocates %v per run, want 0", n)
				}
			})
		})
	}
}

// A pooled solver keeps its scratch and nothing of its last caller's.
func TestPutSolverDropsCallerReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	K, labels := sweepProblem(rng, 20, 0.5)
	s := getSolver()
	s.reset(K, labels, allIdx(20), Params{})
	if _, _, err := s.solve(); err != nil {
		t.Fatal(err)
	}
	putSolver(s)
	if s.idx != nil {
		t.Fatal("a pooled solver still holds its caller's training list")
	}
	if cap(s.kd) < 20*20 || cap(s.v) < 20 {
		t.Fatal("a pooled solver lost its scratch")
	}
}

// The scratch a solver grows for n samples is 4n² + 96n + 144 bytes, the
// figure solverPool's comment and DESIGN.md §17 state: every slice field
// grow makes, counted at its capacity, so a field added to the solver
// moves the sum. (The 144 are three pad elements on each of the seven
// vectors the conjugate-gradient passes read four at a time.)
func TestSolverScratchBytes(t *testing.T) {
	for _, n := range []int{1, 10, 80, 522} {
		s := new(smo32)
		s.grow(n)
		got := 0
		fields := reflect.ValueOf(s).Elem()
		for k := range fields.NumField() {
			if f := fields.Field(k); f.Kind() == reflect.Slice {
				got += f.Cap() * int(f.Type().Elem().Size())
			}
		}
		if want := 4*n*n + 96*n + 144; got != want {
			t.Errorf("n = %d: grow makes %d bytes of scratch, want 4n² + 96n + 144 = %d", n, got, want)
		}
	}
}

// BenchmarkCrossValidateShapes times one voxel's cross-validation at each
// benchmark fold shape and the paper's two, per path. iters/op is the SMO
// iteration count of the call and cg/op its conjugate-gradient mat-vecs —
// the same on both paths — so ns/op, one voxel, is read beside the work
// it did. It is the stage-3 table of DESIGN.md §17:
//
//	go test -run '^$' -bench CrossValidateShapes ./internal/svm
func BenchmarkCrossValidateShapes(b *testing.B) {
	ctx := context.Background()
	var tr KernelTrainer = PhiSVM{}
	old := useAVX2
	defer func() { useAVX2 = old }()
	for _, sh := range cvShapes {
		K, labels, folds := shapeProblem(b, sh.voxels, sh.subjects, sh.epochsPerSubject)
		st, err := CrossValidateDetailed(tr, K, labels, folds)
		if err != nil {
			b.Fatal(err)
		}
		for _, path := range []struct {
			name string
			avx2 bool
		}{{"go", false}, {"avx2", true}} {
			b.Run(sh.name+"/"+path.name, func(b *testing.B) {
				if path.avx2 && !blas.HasAVX2() {
					b.Skip("host has no AVX2")
				}
				useAVX2 = path.avx2
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := CrossValidateContext(ctx, tr, K, labels, folds); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(st.TotalIters()), "iters/op")
				b.ReportMetric(float64(st.TotalCGSteps()), "cg/op")
			})
		}
	}
}
