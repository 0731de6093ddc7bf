package svm

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

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
	defer setPath("host")
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

// startGo and releaseGo run on every path, so no pin between paths holds
// them: each against its contract. From α at 0, at C and between them,
// with garbage in the phase's vectors and pads, startGo leaves h = −v,
// W = {0 < α < C}, d = q = 0 and zeros past n; then releaseGo, at μ = 0,
// adds to W exactly the variables off it whose gradient h points into the
// box by more than eps (down from C, or from 0 on the other side of β's
// bound), and reports whether it added any.
func TestStartAndReleaseContracts(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(21)
		np := (n + 3) &^ 3
		K, labels := sweepProblem(rng, n, 0.5)
		var s smo32
		s.reset(K, labels, allIdx(n), Params{})
		s.alpha, s.y, s.coef, s.dir, s.free, s.q = s.alpha[:np], s.y[:np], s.coef[:np], s.dir[:np], s.free[:np], s.q[:np]
		for k := range np {
			s.coef[k], s.dir[k], s.free[k], s.q[k] = rng.NormFloat64(), rng.NormFloat64(), 7, 7
			if k < n {
				s.alpha[k] = []float64{0, s.c, s.c * rng.Float64()}[rng.Intn(3)]
				s.v[k] = float32(rng.NormFloat64())
			} else {
				s.alpha[k], s.y[k] = 7, 7
			}
		}
		alpha := append([]float64(nil), s.alpha...)
		startGo(&s)
		for k := range np {
			h, m := 0.0, 0.0
			if k < n {
				h = -float64(s.v[k])
				if alpha[k] > 0 && alpha[k] < s.c {
					m = 1
				}
			}
			if s.coef[k] != h || s.free[k] != m || s.dir[k] != 0 || s.q[k] != 0 || k >= n && (s.alpha[k] != 0 || s.y[k] != 0) {
				t.Fatalf("trial %d, k = %d of %d: start left h %g, W %g, d %g, q %g, α %g, y %g; want h %g, W %g and zeros",
					trial, k, n, s.coef[k], s.free[k], s.dir[k], s.q[k], s.alpha[k], s.y[k], h, m)
			}
		}
		want, any := append([]float64(nil), s.free...), false
		for k := range n {
			lower := (s.y[k] > 0) == (s.alpha[k] == 0)
			if g := s.coef[k]; want[k] == 0 && (lower && g < -s.eps || !lower && g > s.eps) {
				want[k], any = 1, true
			}
		}
		if got := releaseGo(&s, 0); got != any {
			t.Fatalf("trial %d: release reported %v, want %v", trial, got, any)
		}
		requireSameFloats(t, fmt.Sprintf("trial %d: W after release", trial), s.free, want)
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
		if hostLanes == 0 {
			t.Skip("host has no AVX2 + FMA: the Go path is the only one")
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
		defer setPath("host")
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
				matvecAVX2(K.Data, rows, x, q[p], kernelLanes)
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

// The mat-vec's pass against the Go one, on the contract conjugate reads:
// dᵀq and Σ_W q bit for bit, and when λ = rd/dᵀq reaches the box's
// longest step, that step and its first position; when it does not, a
// step longer than λ. With K = I, q = float32(d); α sits at and between
// the bounds, d is zero, subnormal or of any size, W any subset, and rd
// puts λ on each ratio, about an ulp either side, and at 0⁺, huge and
// +Inf values.
func TestMatvecCutMatchesGo(t *testing.T) {
	if hostLanes == 0 {
		t.Skip("host has no AVX2 + FMA")
	}
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(40)
		np := (n + 3) &^ 3
		s := new(smo32)
		s.grow(n)
		s.n, s.c = n, []float64{1e-4, 1, 10}[trial%3]
		s.alpha, s.y, s.dir, s.v, s.free, s.q = s.alpha[:np], s.y[:np], s.dir[:np], s.v[:np], s.free[:np], s.q[:np]
		var ratios []float64
		for k := range n {
			s.kd[k*n+k] = 1
			s.y[k], s.free[k] = float64(2*rng.Intn(2)-1), float64(rng.Intn(2))
			s.alpha[k] = []float64{0, s.c, s.c * rng.Float64(), s.c * rng.Float64()}[rng.Intn(4)]
			switch rng.Intn(6) {
			case 0:
				s.dir[k] = 0
			case 1:
				s.dir[k] = math.Ldexp(rng.NormFloat64(), -1060) // subnormal
			default:
				s.dir[k] = math.Ldexp(rng.NormFloat64(), rng.Intn(80)-40)
			}
			s.v[k] = float32(s.dir[k])
			r := s.alpha[k] / math.Abs(s.dir[k])
			if s.y[k]*s.dir[k] > 0 {
				r = (s.c - s.alpha[k]) / math.Abs(s.dir[k])
			}
			ratios = append(ratios, r, math.Nextafter(r, 0), math.Nextafter(r, math.Inf(1)))
		}
		ratios = append(ratios, 1e-300, 1, 1e300, math.Inf(1))
		rows := allIdx(n)
		dq, sq, _, _ := matvecGoCut(s, rows, 0)
		for _, target := range ratios {
			rd := target * dq
			lam := rd / dq
			_, _, wantL, wantK := matvecGoCut(s, rows, rd)
			for _, lanes := range []int{8, hostLanes} {
				s.lanes = lanes
				zmm := lanes == 16
				gdq, gsq, gotL, gotK := cgAVX2.matvec(s, rows, rd)
				if !sameFloat(gdq, dq) || !sameFloat(gsq, sq) {
					t.Fatalf("trial %d (ZMM %v): dᵀq %g, Σ_W q %g; Go %g, %g", trial, zmm, gdq, gsq, dq, sq)
				}
				if lam >= wantL {
					if !sameFloat(gotL, wantL) || gotK != wantK {
						t.Fatalf("trial %d (ZMM %v), λ = %g: cut (%g, %d), Go (%g, %d)", trial, zmm, lam, gotL, gotK, wantL, wantK)
					}
				} else if lam >= gotL {
					t.Fatalf("trial %d (ZMM %v), λ = %g below the Go path's step %g: cut (%g, %d)", trial, zmm, lam, wantL, gotL, gotK)
				}
			}
		}
	}
}
