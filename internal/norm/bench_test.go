package norm

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// coefficients fills a rows×cols block with correlation-like inputs:
// "gauss" is N(0, 0.3) (what a noise brain gives at a dozen time points),
// "uniform" is the benchmark probe's uniform[−0.9, 0.9], which puts 31 % of
// the block in the kernel's log branch.
func coefficients(kind string, rows, cols int) []float32 {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float32, rows*cols)
	for i := range xs {
		if kind == "gauss" {
			xs[i] = float32(max(-0.999, min(0.999, rng.NormFloat64()*0.3)))
		} else {
			xs[i] = float32(rng.Float64()*1.8 - 0.9)
		}
	}
	return xs
}

// sweepN runs the fused sweep n times over src. The sweep works in place,
// so each run restores block from src first; the copy is a few percent of
// the time.
func sweepN(src, block []float32, rows, cols, n int) {
	var s Scratch
	for i := 0; i < n; i++ {
		copy(block, src)
		s.FisherThenZScoreStrided(block, rows, cols, cols)
	}
}

// BenchmarkFisherThenZScore reports the fused sweep's rate on the Go loops
// and on each vector path: with SetBytes at one "byte" per coefficient, the
// MB/s column is the Melem/s of the benchmark ledger's
// norm.fisher_zscore_melem_per_s. 16×4096 puts the rows 16 KiB apart, the
// stride at which the kernels' column panels alias in L1.
func BenchmarkFisherThenZScore(b *testing.B) {
	for _, shape := range [][2]int{{12, 640}, {16, 4096}} {
		for _, kind := range []string{"gauss", "uniform"} {
			for _, path := range sweepPaths {
				rows, cols := shape[0], shape[1]
				b.Run(fmt.Sprintf("%dx%d/%s/%s", rows, cols, kind, path.name), func(b *testing.B) {
					if path.lanes > hostLanes {
						b.Skipf("host runs %d-lane kernels at most", hostLanes)
					}
					withSweepPath(path.lanes, func() {
						src := coefficients(kind, rows, cols)
						block := make([]float32, len(src))
						sweepN(src, block, rows, cols, 1) // warm the caches
						b.SetBytes(int64(len(src)))
						b.ResetTimer()
						sweepN(src, block, rows, cols, b.N)
					})
				})
			}
		}
	}
}

// sweepSeconds is the fastest of nine timings of reps sweeps over src.
func sweepSeconds(src []float32, rows, cols, reps int) float64 {
	block := make([]float32, len(src))
	best := time.Duration(1 << 62)
	for try := 0; try < 9; try++ {
		start := time.Now()
		sweepN(src, block, rows, cols, reps)
		best = min(best, time.Since(start))
	}
	return best.Seconds()
}

// No input distribution may fall off a cliff: the float64 kernel this one
// replaced ran at a tenth of the rate, and a kernel that kept it for some
// range of r would show here. Uniform inputs are the slow case (most log
// branches); they must hold 0.6 of the gaussian rate.
func TestFisherRateHoldsOnUniformInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const rows, cols, reps = 12, 640, 40
	eachSweepPath(t, func(t *testing.T) {
		var ratio float64
		for attempt := 0; attempt < 3; attempt++ {
			gauss := sweepSeconds(coefficients("gauss", rows, cols), rows, cols, reps)
			uniform := sweepSeconds(coefficients("uniform", rows, cols), rows, cols, reps)
			if ratio = gauss / uniform; ratio >= 0.6 {
				t.Logf("uniform inputs run at %.2f of the gaussian rate", ratio)
				return
			}
		}
		t.Fatalf("uniform inputs run at %.2f of the gaussian rate, want >= 0.6", ratio)
	})
}
