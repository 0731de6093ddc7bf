package blas

import (
	"fmt"
	"math/rand"
	"testing"

	"fcma/internal/tensor"
)

// The serial kernel fast paths are the per-epoch hot loop of the merged
// correlation pipeline: once the syrk scratch pool is warm, a steady-state
// Gemm or Syrk call must not touch the heap at all, on the Go kernels or
// the vector ones.

func TestGemmSerialAllocsPerRunZero(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	A := randomMatrix(rng, 64, 12)
	B := randomMatrix(rng, 12, 4096)
	C := tensor.NewMatrix(64, 4096)
	ts := TallSkinny{Workers: 1, ColBlock: 1024}
	eachKernelPath(t, func(t *testing.T) {
		ts.Gemm(C, A, B) // warm up
		if n := testing.AllocsPerRun(20, func() { ts.Gemm(C, A, B) }); n != 0 {
			t.Fatalf("serial Gemm allocates %v per run, want 0", n)
		}
	})
}

func TestSyrkSerialAllocsPerRunZero(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	A := randomMatrix(rng, 48, 2048)
	C := tensor.NewMatrix(48, 48)
	ts := TallSkinny{Workers: 1}
	eachKernelPath(t, func(t *testing.T) {
		ts.Syrk(C, A) // warm up the scratch pool
		if n := testing.AllocsPerRun(20, func() { ts.Syrk(C, A) }); n != 0 {
			t.Fatalf("serial Syrk allocates %v per run, want 0", n)
		}
	})
}

// The mirrored walk's mirror terms: a warm accumulator stages and adds a
// tile's columns without touching the heap.
func TestAddColumnsAllocsPerRunZero(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	A := randomMatrix(rng, 96*12, 288)
	Cs := make([]tensor.Matrix, 20)
	for i := range Cs {
		Cs[i] = *tensor.NewMatrix(12, 12)
	}
	var acc SyrkAcc
	eachKernelPath(t, func(t *testing.T) {
		acc.AddColumns(Cs, A, 96) // warm up the staging buffer
		if n := testing.AllocsPerRun(20, func() { acc.AddColumns(Cs, A, 96) }); n != 0 {
			t.Fatalf("AddColumns allocates %v per run, want 0", n)
		}
	})
}

func BenchmarkGemmSerial(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	A := randomMatrix(rng, 64, 12)
	B := randomMatrix(rng, 12, 16384)
	C := tensor.NewMatrix(64, 16384)
	ts := TallSkinny{Workers: 1}
	b.SetBytes(int64(4 * (64*12 + 12*16384 + 64*16384)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.Gemm(C, A, B)
	}
}

func BenchmarkSyrkSerial(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	A := randomMatrix(rng, 48, 8192)
	C := tensor.NewMatrix(48, 48)
	ts := TallSkinny{Workers: 1}
	b.SetBytes(int64(4 * (48*8192 + 48*48)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.Syrk(C, A)
	}
}

// BenchmarkSyrkHeights is DESIGN.md §14's GFLOP/s-vs-M table: one M×4096
// kernel matrix at every height M = 4 … 120, step 4, on each kernel path
// (the MB/s column reads as MFLOP/s). Run it with -cpu 1.
func BenchmarkSyrkHeights(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	for _, p := range kernelPaths {
		for m := 4; m <= 120; m += 4 {
			b.Run(fmt.Sprintf("%s/m%d", p.name, m), func(b *testing.B) {
				if p.lanes > hostLanes {
					b.Skipf("host runs %d-lane kernels at most", hostLanes)
				}
				A, C := randomMatrix(rng, m, 4096), tensor.NewMatrix(m, m)
				b.SetBytes(SyrkFlops(m, 4096))
				withKernelPath(p.lanes, func() {
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						TallSkinny{}.Syrk(C, A)
					}
				})
			})
		}
	}
}

// BenchmarkGemmStripWidths times the fused stage's gemm shape — eight
// assigned voxels × 12 time points against the brain — at the two
// serve_smalljobs brains, 126 and 172 voxels (masked tails of 14 and 12
// columns past the 16-lane groups), and at 4096, on each kernel path.
func BenchmarkGemmStripWidths(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	for _, p := range kernelPaths {
		for _, n := range []int{126, 172, 4096} {
			b.Run(fmt.Sprintf("%s/w%d", p.name, n), func(b *testing.B) {
				if p.lanes > hostLanes {
					b.Skipf("host runs %d-lane kernels at most", hostLanes)
				}
				A, B, C := randomMatrix(rng, 8, 12), randomMatrix(rng, 12, n), tensor.NewMatrix(8, n)
				b.SetBytes(GemmFlops(8, 12, n))
				withKernelPath(p.lanes, func() {
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						TallSkinny{Workers: 1}.Gemm(C, A, B)
					}
				})
			})
		}
	}
}
