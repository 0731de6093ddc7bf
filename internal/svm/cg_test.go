package svm

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fcma/internal/blas"
	"fcma/internal/tensor"
)

// cgProblem is one training problem the phase is held to.
type cgProblem struct {
	name   string
	K      *tensor.Matrix
	labels []int
	train  []int
	p      Params
}

// cgProblems are the phase's test problems: every fold of the fold shapes
// (the paper's two only without -short), a kernel with a null vector per
// subject, a box so small that most α sit at C, n = 2 and 3, and kernels
// with NaN and infinite entries.
func cgProblems(t *testing.T) []cgProblem {
	var ps []cgProblem
	for _, sh := range cvShapes {
		if testing.Short() && sh.subjects > 6 {
			continue
		}
		K, labels, folds := shapeProblem(t, sh.voxels, sh.subjects, sh.epochsPerSubject)
		for fi, f := range folds {
			ps = append(ps, cgProblem{fmt.Sprintf("%s fold %d", sh.name, fi), K, labels, f.Train, Params{}})
		}
	}
	// Four subjects of twelve, each subject's rows centred: K·1ₛ = 0.
	rng := rand.New(rand.NewSource(41))
	X := tensor.NewMatrix(48, 20)
	labels := make([]int, 48)
	for s := 0; s < 4; s++ {
		mean := make([]float32, 20)
		for i := 12 * s; i < 12*s+12; i++ {
			labels[i] = i % 2
			for j := range mean {
				X.Set(i, j, float32(rng.NormFloat64())+float32(labels[i])*0.3)
				mean[j] += X.At(i, j) / 12
			}
		}
		for i := 12 * s; i < 12*s+12; i++ {
			for j, m := range mean {
				X.Set(i, j, X.At(i, j)-m)
			}
		}
	}
	ps = append(ps, cgProblem{"null vectors", PrecomputeKernel(X), labels, allIdx(48), Params{}})
	K, labels := noisyProblem(rand.New(rand.NewSource(43)), 60, 0.3)
	ps = append(ps, cgProblem{"tiny C", K, labels, allIdx(60), Params{C: 0.05}})
	for _, n := range []int{2, 3} {
		K, labels := sweepProblem(rand.New(rand.NewSource(int64(n))), n, 0.5)
		ps = append(ps, cgProblem{fmt.Sprintf("n = %d", n), K, labels, allIdx(n), Params{}})
	}
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		K, labels := sweepProblem(rand.New(rand.NewSource(47)), 24, 0.5)
		K.Set(3, 5, bad)
		K.Set(5, 3, bad)
		ps = append(ps, cgProblem{fmt.Sprintf("K entry %g", bad), K, labels, allIdx(24), Params{}})
	}
	return ps
}

// The phase's invariants, from the seed and from where 2n SMO iterations
// leave a fold: 0 ≤ α ≤ C exactly; |yᵀα| ≤ 1e-12·n·C; v within eps/100
// of y − K·(α∘y) recomputed in float64 (on finite kernels); the masks
// are outside(α); and once SMO resumes, the fold closes below eps. The
// YMM and ZMM paths end in the Go path's bits — α, h, the direction, W,
// v, the masks, ρ and both counts. The phase must run on the shapes that
// enter it and release variables held at C.
func TestCGPhaseInvariants(t *testing.T) {
	oldAVX2, oldZMM := useAVX2, useZMM
	defer func() { useAVX2, useZMM = oldAVX2, oldZMM }()
	ran := map[string]int{}
	releasedAtC := 0
	for _, pr := range cgProblems(t) {
		finite := true
		for _, i := range pr.train {
			for _, k := range pr.train {
				finite = finite && !math.IsNaN(float64(pr.K.At(i, k))) && !math.IsInf(float64(pr.K.At(i, k)), 0)
			}
		}
		for _, start := range []string{"seed", "2n"} {
			what := pr.name + " from " + start
			var s [3]smo32
			var iters, steps [3]int
			for p := range s {
				if !setPath(paths[p]) {
					s[p], iters[p], steps[p] = s[0], iters[0], steps[0]
					continue
				}
				s[p].reset(pr.K, pr.labels, pr.train, pr.p)
				ok := true
				if start == "2n" {
					i, j, ok0 := s[p].selectFirstOrder()
					iters[p], ok = s[p].iterate(i, j, ok0, 0, 2*s[p].n)
				}
				if !ok {
					continue // closed inside the budget: no phase
				}
				var atC []int
				for k, a := range s[p].alpha {
					if a == s[p].c {
						atC = append(atC, k)
					}
				}
				steps[p] = s[p].conjugate()
				if p == 0 {
					requireCGInvariants(t, what, &s[0], pr, finite)
					for _, k := range atC {
						if s[0].alpha[k] < s[0].c {
							releasedAtC++
						}
					}
				}
				i, j, ok := s[p].selectFirstOrder()
				iters[p], ok = s[p].iterate(i, j, ok, iters[p], s[p].maxIter)
				if p == 0 && finite && ok {
					t.Fatalf("%s: SMO did not close the fold after the phase", what)
				}
			}
			ran[pr.name[:min(len(pr.name), 8)]] += steps[0]
			for p := 1; p < len(s); p++ {
				requireSameSolver(t, what+" on "+paths[p], &s[p], &s[0], iters[p], iters[0], steps[p], steps[0])
			}
		}
	}
	t.Logf("mat-vecs per problem kind: %v; α released from C: %d", ran, releasedAtC)
	for _, kind := range []string{"attentio", "null vec", "tiny C"} {
		if ran[kind] == 0 {
			t.Errorf("%s: the phase never ran a mat-vec", kind)
		}
	}
	if releasedAtC == 0 {
		t.Error("no α held at C was released")
	}
}

// requireSameSolver holds a solver's state and counts to the Go path's,
// bit for bit: α, h, the direction, W, v, the masks and ρ.
func requireSameSolver(t *testing.T, what string, got, want *smo32, iters, wantIters, steps, wantSteps int) {
	t.Helper()
	if iters != wantIters || steps != wantSteps {
		t.Fatalf("%s: %d iterations, %d mat-vecs; Go path %d, %d", what, iters, steps, wantIters, wantSteps)
	}
	for _, f := range []func(*smo32) []float64{
		func(s *smo32) []float64 { return s.alpha },
		func(s *smo32) []float64 { return s.coef },
		func(s *smo32) []float64 { return s.dir },
		func(s *smo32) []float64 { return s.free },
		func(s *smo32) []float64 { return []float64{s.threshold()} },
	} {
		requireSameFloats(t, what, f(got), f(want))
	}
	requireSameFloats(t, what+": v", got.v, want.v)
	requireSameMasks(t, got, want)
}

// requireCGInvariants checks the state one phase leaves.
func requireCGInvariants(t *testing.T, what string, s *smo32, pr cgProblem, finite bool) {
	t.Helper()
	var sumYA float64
	for k, a := range s.alpha {
		if !(a >= 0 && a <= s.c) {
			t.Fatalf("%s: α[%d] = %g outside [0, %g]", what, k, a, s.c)
		}
		sumYA += s.y[k] * a
		if outUp, outLow := outside(s.y[k], a, s.c); s.outUp[k] != outUp || s.outLow[k] != outLow {
			t.Fatalf("%s: masks[%d] are not the membership of α = %g", what, k, a)
		}
	}
	if tol := 1e-12 * float64(s.n) * s.c; math.Abs(sumYA) > tol {
		t.Fatalf("%s: yᵀα = %g, want within %g of 0", what, sumYA, tol)
	}
	if !finite {
		return
	}
	for k, ik := range pr.train {
		want := s.y[k]
		for i, ii := range pr.train {
			want -= float64(pr.K.At(ik, ii)) * s.alpha[i] * s.y[i]
		}
		if d := math.Abs(float64(s.v[k]) - want); d > s.eps/100 {
			t.Fatalf("%s: v[%d] = %.9g, y − K·(α∘y) = %.12g (%.2g off)", what, k, s.v[k], want, d)
		}
	}
}

// The mat-vec and the whole phase on the YMM and ZMM paths against the Go
// path, bit for bit, from raw kernel bit patterns (NaN, infinities,
// denormals, negative curvature) at n = 1…20 and any labels and box: one
// mat-vec over the rows the label bits list, then a phase from the seed,
// then a whole solve (every count, α, h, direction, W, v, mask and ρ).
func FuzzCGPhaseMatchesGo(f *testing.F) {
	rng := rand.New(rand.NewSource(53))
	for n := 1; n <= 20; n++ {
		K, labels := sweepProblem(rng, n, 0.5)
		b := make([]byte, 4*n*n)
		var y uint32
		for i, k := range K.Data {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(k))
		}
		for i, l := range labels {
			y |= uint32(l) << i
		}
		f.Add(y, uint8(n%3), b)
	}
	f.Fuzz(func(t *testing.T, y uint32, cSel uint8, data []byte) {
		if !blas.HasAVX2() {
			t.Skip("host has no AVX2: the Go path is the only one")
		}
		n := 0
		for n < 20 && 4*(n+1)*(n+1) <= len(data) {
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
		var rows []int
		for i := range labels {
			if labels[i] = int(y >> i & 1); labels[i] == 1 {
				rows = append(rows, i)
			}
		}
		x := K.Data[n*n-n:]
		old := [2]bool{useAVX2, useZMM}
		defer func() { useAVX2, useZMM = old[0], old[1] }()
		var q [3][]float32
		for p := range q {
			q[p] = make([]float32, n)
			for i := range q[p] {
				q[p][i] = float32(math.NaN())
			}
			if !setPath(paths[p]) {
				copy(q[p], q[0])
			} else if p == 0 {
				matvecGo(K.Data, rows, x, q[p])
			} else {
				matvecAVX2(K.Data, rows, x, q[p])
			}
			requireSameFloats(t, "mat-vec on "+paths[p], q[p], q[0])
		}

		params := Params{C: []float64{1e-4, 1, 10}[cSel%3], MaxIter: 100}
		for _, whole := range []bool{false, true} {
			var s [3]smo32
			var steps, iters [3]int
			for p := range s {
				if !setPath(paths[p]) {
					s[p], iters[p], steps[p] = s[0], iters[0], steps[0]
					continue
				}
				s[p].reset(K, labels, allIdx(n), params)
				if whole {
					iters[p], steps[p], _ = s[p].solveFused()
				} else {
					steps[p] = s[p].conjugate()
				}
				if p > 0 {
					requireSameSolver(t, fmt.Sprintf("%s (whole solve %v)", paths[p], whole), &s[p], &s[0], iters[p], iters[0], steps[p], steps[0])
				}
			}
		}
	})
}
