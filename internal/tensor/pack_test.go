package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.Float32()*2 - 1
	}
	return m
}

func TestPackTransposed(t *testing.T) {
	m := NewMatrix(4, 5)
	for i := range m.Data {
		m.Data[i] = float32(i)
	}
	buf := PackTransposed(nil, m, 1, 2, 2, 3)
	// dst[j*r+i] = src[i0+i, j0+j]
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if buf[j*2+i] != m.At(1+i, 2+j) {
				t.Fatalf("transpose pack mismatch at (%d,%d): %v vs %v", i, j, buf[j*2+i], m.At(1+i, 2+j))
			}
		}
	}
}

func TestPackTransposedRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		m := randomMatrix(rng, r, c)
		buf := PackTransposed(nil, m, 0, 0, r, c)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if buf[j*r+i] != m.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
