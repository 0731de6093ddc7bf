package svm

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"fcma/internal/tensor"
)

// The one-pass decide against the Go one, bit for bit, from raw kernel
// bit patterns (NaN, infinities, denormals; no symmetry): up to
// decideLanes test samples in any order, a training list with repeats,
// and coefficients that are zero, −0, NaN or any value.
func FuzzDecideMatchesGo(f *testing.F) {
	rng := rand.New(rand.NewSource(59))
	for m := 1; m <= 20; m++ {
		K, _ := sweepProblem(rng, m, 0.5)
		b := make([]byte, 4*m*m)
		for i, k := range K.Data {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(k))
		}
		f.Add(rng.Int63(), b)
	}
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		if hostLanes == 0 {
			t.Skip("host has no AVX2 + FMA: the Go path is the only one")
		}
		m := 0
		for m < 24 && 4*(m+1)*(m+1) <= len(data) {
			m++
		}
		if m == 0 {
			t.Skip("not enough data for one sample")
		}
		K := tensor.NewMatrix(m, m)
		for i := range K.Data {
			K.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(2*m)
		s := &smo32{n: n, idx: make([]int, n), coef: make([]float64, n), rho: rng.NormFloat64(), lanes: hostLanes}
		for i := range n {
			s.idx[i] = rng.Intn(m)
			switch rng.Intn(6) {
			case 0:
				s.coef[i] = 0
			case 1:
				s.coef[i] = math.Copysign(0, -1)
			case 2:
				s.coef[i] = math.NaN()
			default:
				s.coef[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(40)-20)
			}
		}
		test := make([]int, 1+rng.Intn(decideLanes))
		for l := range test {
			test[l] = rng.Intn(m)
		}
		var got [decideLanes]float64
		s.decideAll(K, test, &got)
		for l, tt := range test {
			if want := s.decide(K, tt); !sameFloat(got[l], want) {
				t.Fatalf("lane %d (sample %d of %d, %d terms): %g (%#016x), Go %g (%#016x)",
					l, tt, m, n, got[l], math.Float64bits(got[l]), want, math.Float64bits(want))
			}
		}
	})
}
