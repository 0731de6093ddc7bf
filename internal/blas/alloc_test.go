package blas

import (
	"math/rand"
	"testing"

	"fcma/internal/tensor"
)

// The serial kernel fast paths are the per-epoch hot loop of the merged
// correlation pipeline: once the syrk scratch pool is warm, a steady-state
// Gemm or Syrk call must not touch the heap at all, on the Go kernels or
// the AVX2 ones.

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
