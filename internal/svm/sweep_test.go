package svm

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fcma/internal/blas"
	"fcma/internal/corr"
	"fcma/internal/fmri"
	"fcma/internal/tensor"
)

// The fused first-order iteration is pinned to the unfused one bit for
// bit, and the AVX2 sweep to the Go sweep: every test here runs the same
// state down two paths and demands math.Float64bits equality (NaN against
// NaN, the payload aside) and the same selected pair. That pin is what
// lets every equality check above this package — cluster == local,
// served == direct, repeat identity — vouch for stage 3's assembly too.

// eachSweepPath runs f as a subtest on the Go sweep and on the AVX2
// sweep; the AVX2 half skips where the probe says the host has none.
func eachSweepPath(t *testing.T, f func(t *testing.T)) {
	old := useAVX2
	defer func() { useAVX2 = old }()
	t.Run("go", func(t *testing.T) {
		useAVX2 = false
		f(t)
	})
	t.Run("avx2", func(t *testing.T) {
		if !blas.HasAVX2() {
			t.Skip("host has no AVX2")
		}
		useAVX2 = true
		f(t)
	})
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func requireSameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s[%d] = %g (%#016x), want %g (%#016x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
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
		s.reset(K, labels, idx, Params{}, FirstOrder)
		n := len(idx)
		if s.n != n || len(s.kd) != n*n || len(s.y) != n || len(s.alpha) != n || len(s.g) != n || len(s.qd) != n {
			t.Fatalf("%s: scratch not sized to n = %d", name, n)
		}
		if atMostTwoRuns[name] && len(s.runs) > 2 {
			t.Fatalf("%s: compacted in %d runs, want at most 2", name, len(s.runs))
		}
		for i := range idx {
			for k := range idx {
				if got, want := s.kd[i*n+k], K.At(idx[i], idx[k]); math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("%s: kd[%d][%d] = %g, want K[%d][%d] = %g", name, i, k, got, idx[i], idx[k], want)
				}
			}
			if s.qd[i] != float64(K.At(idx[i], idx[i])) || s.y[i] != float64(2*labels[idx[i]]-1) || s.alpha[i] != 0 || s.g[i] != -1 {
				t.Fatalf("%s: position %d starts at qd %g y %g α %g g %g", name, i, s.qd[i], s.y[i], s.alpha[i], s.g[i])
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

// (b) Fused vs unfused: solve() reaches the state of solveUnfused — a plain
// selectFirstOrder and an update per iteration, the first-order solver as
// it was before the sweep — in the same iteration count, on both paths.
func TestFusedSolveMatchesUnfused(t *testing.T) {
	sizes := []int{36, 80, 204}
	for n := 1; n <= 13; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		for _, pos := range []float64{0.5, 0.2} {
			for _, C := range []float64{1e-4, 1, 10} {
				rng := rand.New(rand.NewSource(int64(n)))
				K, labels := sweepProblem(rng, n, pos)
				// The cap bites on the hardest problems, which pins the
				// out-of-iterations exit too.
				params := Params{C: C, MaxIter: 20000}
				want := new(smo32)
				want.reset(K, labels, allIdx(n), params, FirstOrder)
				wantIters, _ := want.solveUnfused()
				t.Run(fmt.Sprintf("n%d/pos%g/C%g", n, pos, C), func(t *testing.T) {
					eachSweepPath(t, func(t *testing.T) {
						got := new(smo32)
						got.reset(K, labels, allIdx(n), params, FirstOrder)
						iters, err := got.solve()
						if (err != nil) != (wantIters == params.MaxIter) {
							t.Fatalf("solve error %v after %d iterations; oracle took %d", err, iters, wantIters)
						}
						if iters != wantIters {
							t.Fatalf("fused solve took %d iterations, unfused %d", iters, wantIters)
						}
						requireSameFloats(t, "alpha", got.alpha, want.alpha)
						requireSameFloats(t, "g", got.g, want.g)
						if !sameFloat(got.threshold(), want.threshold()) {
							t.Fatalf("rho = %g, want %g", got.threshold(), want.threshold())
						}
					})
				})
			}
		}
	}
}

// sweepState builds a solver mid-solve from explicit state: row i of its
// dense kernel is ki, row j is kj (i = 0, j = 1, or both 0 when n = 1).
func sweepState(y, alpha, g []float64, ki, kj []float32, c float64) (s *smo32, i, j int) {
	n := len(g)
	s = &smo32{n: n, c: c, eps: DefaultEps,
		kd: make([]float32, n*n), y: y, alpha: alpha, g: append([]float64(nil), g...)}
	j = min(1, n-1)
	copy(s.row(j), kj)
	copy(s.row(i), ki)
	return s, i, j
}

// requireSweepMatchesOracle runs one sweep from the given state on the
// current path and holds it to addGradient + selectFirstOrder.
func requireSweepMatchesOracle(t *testing.T, y, alpha, g []float64, ki, kj []float32, cyi, cyj, c float64) {
	t.Helper()
	want, i, j := sweepState(y, alpha, g, ki, kj, c)
	want.addGradient(i, j, cyi, cyj)
	wi, wj, wok := want.selectFirstOrder()
	got, _, _ := sweepState(y, alpha, g, ki, kj, c)
	gi, gj, gok := got.sweep(i, j, cyi, cyj)
	if gi != wi || gj != wj || gok != wok {
		t.Fatalf("sweep selected (%d, %d, %v), selectFirstOrder (%d, %d, %v)\ny = %v\nα = %v\ng = %v",
			gi, gj, gok, wi, wj, wok, y, alpha, want.g)
	}
	requireSameFloats(t, "g", got.g, want.g)
}

// (b, continued) Constructed ties and special values, one sweep each: the
// last index must win among equals in every lane arrangement, including
// when the only candidate sits in the scalar tail.
func TestSweepTieBreaks(t *testing.T) {
	negZero := math.Copysign(0, -1)
	inf := math.Inf(1)
	const C = 1.0
	type state struct{ y, alpha, g float64 }
	cases := map[string]func(t, n int) state{
		"all g equal": func(t, n int) state {
			return state{float64(2*(t%2) - 1), 0.5, 0.25}
		},
		"all g equal, one class": func(t, n int) state { return state{1, 0.5, -3} },
		"signed zeros": func(t, n int) state {
			return state{float64(2*(t%2) - 1), 0.5, []float64{0, negZero, negZero, 0, 0}[t%5]}
		},
		"infinities": func(t, n int) state {
			return state{float64(2*(t/2%2) - 1), 0.5, []float64{inf, -inf, 1, -inf, inf, -1, inf}[t%7]}
		},
		"all minus infinity": func(t, n int) state { return state{1, 0.5, inf} },
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
	}
	eachSweepPath(t, func(t *testing.T) {
		for name, at := range cases {
			for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 16, 19} {
				y, alpha, g := make([]float64, n), make([]float64, n), make([]float64, n)
				for k := 0; k < n; k++ {
					st := at(k, n)
					y[k], alpha[k], g[k] = st.y, st.alpha, st.g
				}
				zero := make([]float32, n)
				t.Run(fmt.Sprintf("%s/n%d", name, n), func(t *testing.T) {
					// Zero rows leave g where the case put it (−0 aside);
					// equal rows move every g by the same amount.
					requireSweepMatchesOracle(t, y, alpha, g, zero, zero, 0.5, -0.25, C)
					ones := make([]float32, n)
					for k := range ones {
						ones[k] = 1
					}
					requireSweepMatchesOracle(t, y, alpha, g, ones, ones, 0.5, -0.25, C)
				})
			}
		}
	})
}

// (c) One sweep from raw bit patterns: NaNs, infinities and denormals in
// the gradient, the multipliers, the kernel rows and the coefficients.
func FuzzSMOSweepMatchesGo(f *testing.F) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{1, 4, 7, 8, 13, 40} {
		b := make([]byte, n*sweepFuzzStride)
		for i := 0; i < n; i++ {
			e := b[i*sweepFuzzStride:]
			binary.LittleEndian.PutUint64(e, math.Float64bits(rng.NormFloat64()))
			binary.LittleEndian.PutUint64(e[8:], math.Float64bits([]float64{0, 1, rng.Float64()}[rng.Intn(3)]))
			binary.LittleEndian.PutUint32(e[16:], math.Float32bits(float32(rng.NormFloat64())))
			binary.LittleEndian.PutUint32(e[20:], math.Float32bits(float32(rng.NormFloat64())))
			e[24] = byte(rng.Intn(2))
		}
		f.Add(math.Float64bits(rng.NormFloat64()), math.Float64bits(rng.NormFloat64()), b)
	}
	f.Fuzz(func(t *testing.T, cyiBits, cyjBits uint64, data []byte) {
		if !blas.HasAVX2() {
			t.Skip("host has no AVX2: the Go sweep is the only path")
		}
		n := min(len(data)/sweepFuzzStride, 67)
		if n == 0 {
			t.Skip("not enough data for one element")
		}
		y, alpha, g := make([]float64, n), make([]float64, n), make([]float64, n)
		ki, kj := make([]float32, n), make([]float32, n)
		for i := 0; i < n; i++ {
			e := data[i*sweepFuzzStride:]
			g[i] = math.Float64frombits(binary.LittleEndian.Uint64(e))
			alpha[i] = math.Float64frombits(binary.LittleEndian.Uint64(e[8:]))
			ki[i] = math.Float32frombits(binary.LittleEndian.Uint32(e[16:]))
			kj[i] = math.Float32frombits(binary.LittleEndian.Uint32(e[20:]))
			y[i] = float64(2*int(e[24]&1) - 1)
		}
		cyi, cyj := math.Float64frombits(cyiBits), math.Float64frombits(cyjBits)
		old := useAVX2
		defer func() { useAVX2 = old }()
		var sel [2][3]int
		var grad [2][]float64
		for p, avx2 := range []bool{false, true} {
			useAVX2 = avx2
			s, i, j := sweepState(y, alpha, g, ki, kj, 1)
			si, sj, ok := s.sweep(i, j, cyi, cyj)
			sel[p], grad[p] = [3]int{si, sj, 0}, s.g
			if ok {
				sel[p][2] = 1
			}
		}
		if sel[0] != sel[1] {
			t.Fatalf("AVX2 sweep selected %v, Go sweep %v", sel[1], sel[0])
		}
		requireSameFloats(t, "g", grad[1], grad[0])
	})
}

// sweepFuzzStride is one fuzzed element: g and α as float64 bits, ki and
// kj as float32 bits, one byte whose low bit is the label.
const sweepFuzzStride = 8 + 8 + 4 + 4 + 1

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
// workloads, then the paper's face-scene shape: n is the training-set size
// of one fold.
var cvShapes = []struct {
	name                               string
	voxels, subjects, epochsPerSubject int
}{
	{"facescene_n36", 640, 4, 12},
	{"attention_n80", 256, 6, 16},
	{"online_n10", 1024, 1, 12},
	{"paper_facescene_n204", 256, 18, 12},
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
	s.reset(K, labels, allIdx(20), Params{}, FirstOrder)
	if _, err := s.solve(); err != nil {
		t.Fatal(err)
	}
	putSolver(s)
	if s.idx != nil {
		t.Fatal("a pooled solver still holds its caller's training list")
	}
	if cap(s.kd) < 20*20 || cap(s.g) < 20 {
		t.Fatal("a pooled solver lost its scratch")
	}
}

// BenchmarkCrossValidateShapes times one voxel's cross-validation at each
// benchmark fold shape and the paper's n = 204, per sweep path. It is the
// stage-3 table of EXPERIMENTS.md:
//
//	go test -run '^$' -bench CrossValidateShapes ./internal/svm
func BenchmarkCrossValidateShapes(b *testing.B) {
	ctx := context.Background()
	var tr KernelTrainer = PhiSVM{}
	old := useAVX2
	defer func() { useAVX2 = old }()
	for _, sh := range cvShapes {
		K, labels, folds := shapeProblem(b, sh.voxels, sh.subjects, sh.epochsPerSubject)
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
			})
		}
	}
}
