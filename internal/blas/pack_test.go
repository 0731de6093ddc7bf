package blas

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"fcma/internal/tensor"
)

func TestPackTransposed(t *testing.T) {
	m := tensor.NewMatrix(4, 5)
	for i := range m.Data {
		m.Data[i] = float32(i)
	}
	buf := make([]float32, 6)
	packTransposed(buf, 2, m, 1, 2, 2, 3)
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
		buf := make([]float32, r*c)
		packTransposed(buf, r, m, 0, 0, r, c)
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

// The panel pack alone, on both paths, against the Go loop over the whole
// panel: every shape where the AVX2 copy hands rows or columns to Go (m%4,
// w%8, a panel narrower than one column group or shorter than one row
// group), from a strided, special-sprinkled source. The destination
// carries sentinels past the panel, which the copy must leave intact.
func TestStagePanelMatchesGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	rows := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 36, 54, 96}
	for _, m := range rows {
		for _, w := range []int{1, 7, 8, 9, 95, 96} {
			for _, j0 := range []int{0, 5} {
				A := viewMatrix(rng, m, j0+w, 3)
				sprinkle(rng, A)
				mp := padRows(m)
				want := make([]float32, mp*w)
				packTransposed(want, mp, A, 0, j0, m, w)
				for _, l := range []int{0, hostLanes} {
					what := fmt.Sprintf("m=%d w=%d j0=%d lanes=%d", m, w, j0, l)
					const tail = 9
					got := make([]float32, mp*w+tail)
					for i := range got {
						got[i] = padSentinel
					}
					withKernelPath(l, func() { stagePanel(got[:mp*w], A, j0, w) })
					for k, v := range want {
						if !sameFloat(got[k], v) {
							t.Fatalf("%s: dst[%d] = %g, want %g", what, k, got[k], v)
						}
					}
					for k, v := range got[mp*w:] {
						if v != padSentinel {
							t.Fatalf("%s: wrote past the panel at %d", what, mp*w+k)
						}
					}
					requirePadIntact(t, what, A)
				}
			}
		}
	}
}
