package svm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fcma/internal/tensor"
)

// coldStart aims a reset solver back at α = 0, the start every solve took
// before the seed: G = −1, so v is the label's sign, and α = 0 is in I_up
// on a positive sample and in I_low on a negative one. It is the oracle
// the seed is measured against, not a production path.
func (s *smo32) coldStart() {
	for k, y := range s.y {
		s.alpha[k], s.v[k] = 0, float32(y)
		s.outUp[k], s.outLow[k] = outside(y, 0, s.c)
	}
}

// dualAt is the dual objective ½αᵀQα − 1ᵀα at α on training list idx of
// K, computed from scratch in float64.
func dualAt(K *tensor.Matrix, y []float64, idx []int, alpha []float64) float64 {
	var quad, lin float64
	for a, ia := range idx {
		for b, ib := range idx {
			quad += alpha[a] * alpha[b] * y[a] * y[b] * float64(K.At(ia, ib))
		}
		lin += alpha[a]
	}
	return quad/2 - lin
}

// requireSeedInvariants holds a freshly reset solver to what the seed
// promises: α inside the box and on Σyα = 0; v = y − K·(α∘y), recomputed
// here, rounded once to float32; and a dual objective no higher than at
// α = 0 or a step of 10⁻³ either way along the ray (only the shorter one
// when the box cut t).
func requireSeedInvariants(t *testing.T, what string, s *smo32, K *tensor.Matrix, idx []int) {
	t.Helper()
	var sumYA, sumA float64
	for k, a := range s.alpha {
		if !(a >= 0 && a <= s.c) {
			t.Fatalf("%s: α[%d] = %g outside [0, %g]", what, k, a, s.c)
		}
		sumYA += s.y[k] * a
		sumA += a
	}
	if math.Abs(sumYA) > 1e-12*sumA {
		t.Fatalf("%s: Σyα = %g with Σα = %g", what, sumYA, sumA)
	}
	for k, ik := range idx {
		want, scale := s.y[k], 1.0
		for i, ii := range idx {
			term := float64(K.At(ik, ii)) * s.alpha[i] * s.y[i]
			want -= term
			scale += math.Abs(term)
		}
		// The float64 value is within 10⁻¹² of want; rounding it to v's
		// float32 moves it by at most half an ulp, 2⁻²⁴ of its size.
		if tol := 1e-12*scale + 0x1p-24*(math.Abs(want)+1e-12*scale); math.Abs(float64(s.v[k])-want) > tol {
			t.Fatalf("%s: v[%d] = %.9g, y − K·(α∘y) = %.17g", what, k, s.v[k], want)
		}
		if outUp, outLow := outside(s.y[k], s.alpha[k], s.c); s.outUp[k] != outUp || s.outLow[k] != outLow {
			t.Fatalf("%s: masks[%d] are not the membership of α = %g", what, k, s.alpha[k])
		}
	}
	f := dualAt(K, s.y, idx, s.alpha)
	if f > 0 {
		t.Fatalf("%s: dual objective %g at the seed, 0 at α = 0", what, f)
	}
	cut := false
	for _, a := range s.alpha {
		cut = cut || a*(1+1e-3) > s.c
	}
	for _, scale := range []float64{1 - 1e-3, 1 + 1e-3} {
		if scale > 1 && cut {
			continue
		}
		moved := make([]float64, len(s.alpha))
		for k, a := range s.alpha {
			moved[k] = a * scale
		}
		if g := dualAt(K, s.y, idx, moved); g < f {
			t.Fatalf("%s: dual objective %.17g at the seed, %.17g at t·%g", what, f, g, scale)
		}
	}
}

// The seed's invariants, on noisy linear kernels of every balance and box
// — C small enough that the box cuts t, and large — and on every fold of
// the benchmark shapes, on both paths.
func TestSeedInvariants(t *testing.T) {
	eachSweepPath(t, func(t *testing.T) {
		s := new(smo32)
		for _, n := range []int{2, 3, 7, 16, 36, 80} {
			for _, pos := range []float64{0.5, 0.2} {
				for _, C := range []float64{1e-4, 1, 10} {
					K, labels := sweepProblem(rand.New(rand.NewSource(int64(n))), n, pos)
					if p := countPositive(labels, allIdx(n)); p == 0 || p == n {
						continue
					}
					s.reset(K, labels, allIdx(n), Params{C: C})
					requireSeedInvariants(t, fmt.Sprintf("n%d/pos%g/C%g", n, pos, C), s, K, allIdx(n))
				}
			}
		}
		for _, sh := range cvShapes[:3] {
			K, labels, folds := shapeProblem(t, sh.voxels, sh.subjects, sh.epochsPerSubject)
			for fi, f := range folds {
				s.reset(K, labels, f.Train, Params{})
				requireSeedInvariants(t, fmt.Sprintf("%s fold %d", sh.name, fi), s, K, f.Train)
			}
		}
	})
}

// Where cᵀKc is not a positive finite number the ray has no minimum, and
// the solve starts at α = 0 with v = y: a zero kernel, two identical
// samples with opposite labels, a NaN entry, a single class.
func TestSeedFallsBackToZero(t *testing.T) {
	same := tensor.NewMatrix(2, 2)
	for i := range same.Data {
		same.Data[i] = 3
	}
	withNaN := tensor.NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		withNaN.Set(i, i, 1)
	}
	withNaN.Set(1, 2, float32(math.NaN()))
	for name, c := range map[string]struct {
		K      *tensor.Matrix
		labels []int
	}{
		"zero kernel":          {tensor.NewMatrix(4, 4), []int{0, 1, 1, 0}},
		"identical, opposite":  {same, []int{1, 0}},
		"NaN entry":            {withNaN, []int{1, 0, 1, 0}},
		"one class, identity":  {withNaN.View(0, 0, 1, 1), []int{1}},
		"one class, two alike": {same, []int{1, 1}},
	} {
		eachSweepPath(t, func(t *testing.T) {
			s := new(smo32)
			s.reset(c.K, c.labels, allIdx(len(c.labels)), Params{})
			for k, y := range s.y {
				if s.alpha[k] != 0 || float64(s.v[k]) != y {
					t.Fatalf("%s: position %d starts at α %g v %g, want α = 0, v = y = %g", name, k, s.alpha[k], s.v[k], y)
				}
				if outUp, outLow := outside(y, 0, s.c); s.outUp[k] != outUp || s.outLow[k] != outLow {
					t.Fatalf("%s: position %d starts with the masks of α ≠ 0", name, k)
				}
			}
		})
	}
	if _, err := (PhiSVM{}).TrainKernel(same, []int{1, 1}, allIdx(2)); !errors.Is(err, ErrOneClass) {
		t.Fatalf("single-class training set: %v, want ErrOneClass", err)
	}
}

// The seed keeps paying: over one voxel's cross-validation at each fold
// shape, the seeded SMO loops take at most the cold loops' iterations, and
// at most 0.35× of them at face-scene's n = 36 and 0.8× at attention's
// n = 80 (0.14× and 0.67× measured). The loops run alone (solveSMO): a
// cold start no longer closes face-scene's folds in 2n iterations, and the
// conjugate-gradient phase would end both solves at the same point.
func TestSeedCutsIterations(t *testing.T) {
	ceiling := map[string]float64{"facescene_n36": 0.35, "attention_n80": 0.8}
	for _, sh := range cvShapes {
		if testing.Short() && sh.subjects > 6 {
			continue
		}
		K, labels, folds := shapeProblem(t, sh.voxels, sh.subjects, sh.epochsPerSubject)
		s := new(smo32)
		var seeded, cold int
		for fi, f := range folds {
			for _, start := range []struct {
				total *int
				cold  bool
			}{{&seeded, false}, {&cold, true}} {
				s.reset(K, labels, f.Train, Params{})
				if start.cold {
					s.coldStart()
				}
				iters, converged := s.solveSMO()
				if !converged {
					t.Fatalf("%s fold %d (cold %v): out of iterations", sh.name, fi, start.cold)
				}
				*start.total += iters
			}
		}
		ratio := float64(seeded) / float64(cold)
		t.Logf("%s: %d iterations seeded, %d cold (%.2f×)", sh.name, seeded, cold, ratio)
		limit, ok := ceiling[sh.name]
		if !ok {
			limit = 1
		}
		if ratio > limit {
			t.Errorf("%s: seeded solves took %.2f× the cold iterations, want <= %g", sh.name, ratio, limit)
		}
	}
}

// The seed's class sums on the assembly path against classSums, bit for
// bit, from raw float bit patterns (NaN, infinities, denormals, signed
// zeros) at n = 1…40, both classes present from n = 2 on, into sums that
// held garbage, with the rows listed as reset lists them.
func FuzzSeedSumsMatchGo(f *testing.F) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{1, 2, 3, 4, 5, 8, 13, 36, 40} {
		b := make([]byte, 4*n*n)
		for i := 0; i < n*n; i++ {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(float32(rng.NormFloat64())))
		}
		f.Add(rng.Uint64(), b)
	}
	f.Fuzz(func(t *testing.T, labelBits uint64, data []byte) {
		if hostLanes == 0 {
			t.Skip("host has no AVX2 + FMA: classSums is the only path")
		}
		n := 0
		for n < 40 && 4*(n+1)*(n+1) <= len(data) {
			n++
		}
		if n == 0 {
			t.Skip("not enough data for one sample")
		}
		kd := make([]float32, n*n)
		for i := range kd {
			kd[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		if n >= 2 && (labelBits&(1<<n-1) == 0 || labelBits&(1<<n-1) == 1<<n-1) {
			labelBits ^= 1
		}
		var pos, neg []int
		for i := 0; i < n; i++ {
			if labelBits>>i&1 == 1 {
				pos = append(pos, i)
			} else {
				neg = append(neg, i)
			}
		}
		rows := append(pos, neg...)
		var sums [2][2][]float64
		for p := range sums {
			for c := range sums[p] {
				sums[p][c] = make([]float64, n)
				for i := range sums[p][c] {
					sums[p][c][i] = math.NaN()
				}
			}
		}
		classSums(kd, rows, len(pos), sums[0][0], sums[0][1])
		classSumsAVX2(kd, rows, len(pos), sums[1][0], sums[1][1])
		requireSameFloats(t, "r₊", sums[1][0], sums[0][0])
		requireSameFloats(t, "r₋", sums[1][1], sums[0][1])
	})
}
