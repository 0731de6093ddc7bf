package norm

import (
	"math"
	"math/rand"
	"testing"
)

func randomBlock(rng *rand.Rand, n int) []float32 {
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = rng.Float32()*2 - 1
	}
	return xs
}

func TestScratchStridedMatchesCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rows, cols, stride := 6, 10, 17
	strided := randomBlock(rng, (rows-1)*stride+cols)
	compact := make([]float32, rows*cols)
	for i := 0; i < rows; i++ {
		copy(compact[i*cols:(i+1)*cols], strided[i*stride:i*stride+cols])
	}
	new(Scratch).FisherThenZScoreStrided(compact, rows, cols, cols)
	var s Scratch
	s.FisherThenZScoreStrided(strided, rows, cols, stride)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if compact[i*cols+j] != strided[i*stride+j] {
				t.Fatalf("(%d,%d): strided %v vs compact %v", i, j, strided[i*stride+j], compact[i*cols+j])
			}
		}
	}
}

// A reused scratch must not leak the previous block's scale/shift into a
// zero-variance column (the fresh-allocation version got zeros for free).
func TestScratchReuseResetsZeroVarianceColumns(t *testing.T) {
	var s Scratch
	rng := rand.New(rand.NewSource(5))
	s.FisherThenZScoreStrided(randomBlock(rng, 4*8), 4, 8, 8)
	// Constant columns: zero variance after Fisher, so output must be 0.
	flat := make([]float32, 4*8)
	for i := range flat {
		flat[i] = 0.5
	}
	s.FisherThenZScoreStrided(flat, 4, 8, 8)
	for i, v := range flat {
		if v != 0 {
			t.Fatalf("zero-variance column leaked stale scaling at %d: %v", i, v)
		}
	}
}

func TestScratchAllocsPerRunZero(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := randomBlock(rng, 12*256)
	out := make([]float32, len(data))
	eachSweepPath(t, func(t *testing.T) {
		var s Scratch
		s.FisherThenZScoreStrided(data, 12, 256, 256) // warm
		if n := testing.AllocsPerRun(20, func() {
			s.FisherThenZScoreStrided(data, 12, 256, 256)
			s.FisherThenZScoreInto(out, 256, data, 12, 256, 256)
		}); n != 0 {
			t.Fatalf("warm scratch allocates %v per run, want 0", n)
		}
	})
}

// FisherZ is the scalar kernel a per-coefficient caller runs (the sweep
// has its own row loops); it allocates nothing on any regime.
func TestFisherZAllocsZero(t *testing.T) {
	var sink float32
	if n := testing.AllocsPerRun(20, func() {
		for _, r := range []float32{0, 0.3, -0.7, 0.99, 1, float32(math.NaN())} {
			sink += FisherZ(r)
		}
	}); n != 0 {
		t.Fatalf("FisherZ allocates %v per run, want 0", n)
	}
	_ = sink
}

func TestScratchStrideValidation(t *testing.T) {
	var s Scratch
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"stride<cols", func() { s.FisherThenZScoreStrided(make([]float32, 64), 2, 8, 4) }},
		{"short data", func() { s.FisherThenZScoreStrided(make([]float32, 10), 2, 8, 8) }},
		{"dstStride<cols", func() { s.FisherThenZScoreInto(make([]float32, 64), 4, make([]float32, 16), 2, 8, 8) }},
		{"short dst", func() { s.FisherThenZScoreInto(make([]float32, 10), 8, make([]float32, 16), 2, 8, 8) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

// The sweep's branch-free row pass, on either path, and the scalar kernel
// are one function: same bits on every regime, the awkward inputs included.
func TestFisherRowMatchesFisherZ(t *testing.T) {
	row := fisherSeams()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		row = append(row, rng.Float32()*2-1)
	}
	if len(row)%8 != 0 {
		t.Fatalf("%d coefficients: the AVX2 row pass takes whole vectors of 8", len(row))
	}
	want := make([]float32, len(row))
	for i, r := range row {
		want[i] = FisherZ(r)
	}
	eachSweepPath(t, func(t *testing.T) {
		got := append([]float32(nil), row...)
		var s Scratch
		s.grow(len(got), 0)
		if kernelLanes == 16 {
			fisherRowZMM(&got[0], len(got), &s.tailR[0], &s.tailJ[0])
		} else if kernelLanes > 0 {
			fisherRowAVX2(&got[0], len(got), &s.tailR[0], &s.tailJ[0])
		} else {
			s.fisherRow(got)
		}
		for i := range got {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("element %d: the row pass gives %v, FisherZ gives %v", i, got[i], want[i])
			}
		}
	})
}
