// Tallskinny demonstrates the kernel layer on its own, outside fMRI: the
// paper argues (§6, §7) its tall-skinny optimizations generalize to any
// workload multiplying matrices with one tiny dimension. This example
// times the general-purpose blocked GEMM/SYRK against the tall-skinny
// kernels on such shapes and verifies they agree numerically.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"fcma/internal/baseline"
	"fcma/internal/blas"
	"fcma/internal/tensor"
)

func main() {
	n := flag.Int("n", 16384, "wide dimension")
	k := flag.Int("k", 12, "tiny inner dimension (an fMRI epoch is ~12 time points)")
	m := flag.Int("m", 120, "small output dimension (assigned voxels per task)")
	reps := flag.Int("reps", 3, "timing repetitions")
	flag.Parse()

	rng := rand.New(rand.NewSource(1))
	A := randomMatrix(rng, *m, *k)
	B := randomMatrix(rng, *k, *n)

	fmt.Printf("GEMM C[%d×%d] = A[%d×%d]·B[%d×%d] (tall-skinny: k=%d)\n", *m, *n, *m, *k, *k, *n, *k)
	cBase := tensor.NewMatrix(*m, *n)
	cOpt := tensor.NewMatrix(*m, *n)
	tBase := timeIt(*reps, func() { baseline.BLAS{}.Gemm(cBase, A, B) })
	tOpt := timeIt(*reps, func() { blas.TallSkinny{}.Gemm(cOpt, A, B) })
	if !cBase.EqualApprox(cOpt, 1e-3) {
		log.Fatalf("kernels disagree: max diff %g", cBase.MaxAbsDiff(cOpt))
	}
	report("gemm", tBase, tOpt, blas.GemmFlops(*m, *k, *n))

	fmt.Printf("\nSYRK C[%d×%d] = X·Xᵀ for X[%d×%d] (long dimension n=%d)\n", *m, *m, *m, *n, *n)
	X := randomMatrix(rng, *m, *n)
	kBase := tensor.NewMatrix(*m, *m)
	kOpt := tensor.NewMatrix(*m, *m)
	tBase = timeIt(*reps, func() { baseline.BLAS{}.Syrk(kBase, X) })
	tOpt = timeIt(*reps, func() { blas.TallSkinny{}.Syrk(kOpt, X) })
	if !kBase.EqualApprox(kOpt, 5e-2) {
		log.Fatalf("syrk kernels disagree: max diff %g", kBase.MaxAbsDiff(kOpt))
	}
	report("syrk", tBase, tOpt, blas.SyrkFlops(*m, *n))
}

func randomMatrix(rng *rand.Rand, r, c int) *tensor.Matrix {
	m := tensor.NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.Float32()*2 - 1
	}
	return m
}

func timeIt(reps int, fn func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

func report(name string, base, opt time.Duration, flops int64) {
	gf := func(d time.Duration) float64 { return float64(flops) / d.Seconds() / 1e9 }
	fmt.Printf("  general blocked %s: %8s  (%.2f GFLOPS)\n", name, base.Round(time.Microsecond), gf(base))
	fmt.Printf("  tall-skinny %s:     %8s  (%.2f GFLOPS)\n", name, opt.Round(time.Microsecond), gf(opt))
	fmt.Printf("  speedup: %.2fx\n", float64(base)/float64(opt))
}
