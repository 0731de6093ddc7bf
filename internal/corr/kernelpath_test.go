package corr

import (
	"context"
	"testing"
	_ "unsafe" // go:linkname

	"fcma/internal/tensor"
)

// blasUseAVX2 and normUseAVX2 are the unexported kernel dispatch variables
// of internal/blas (stage 1's gemm strips) and internal/norm (stage 2's
// sweep), reached by linkname so the pipeline's equivalence tests can run
// on both kernel paths without either package exporting a switch nobody
// else should touch.
//
//go:linkname blasUseAVX2 fcma/internal/blas.useAVX2
var blasUseAVX2 bool

//go:linkname normUseAVX2 fcma/internal/norm.useAVX2
var normUseAVX2 bool

// hostAVX2 is the probe's verdict, read before any test rewrites it.
var hostAVX2 = blasUseAVX2

// setKernelPath routes both stages' kernels to the AVX2 assembly or to the
// Go reference.
func setKernelPath(avx2 bool) {
	blasUseAVX2, normUseAVX2 = avx2, avx2
}

// eachKernelPath runs f as a subtest on the Go kernels and on the AVX2
// kernels; the AVX2 half skips on a host without them.
func eachKernelPath(t *testing.T, f func(t *testing.T)) {
	defer setKernelPath(hostAVX2)
	t.Run("go", func(t *testing.T) {
		setKernelPath(false)
		f(t)
	})
	t.Run("avx2", func(t *testing.T) {
		if !hostAVX2 {
			t.Skip("host has no AVX2")
		}
		setKernelPath(true)
		f(t)
	})
}

// The pipeline's output must not depend on which kernels ran it, nor on
// whether the stages were merged: the AVX2 gemm strips and the AVX2 sweep
// are bit-pinned to the Go ones, and both variants normalize the same
// correlations, so all four runs agree to the last bit — on column blocks
// that are all vector groups (16), all remainder (7) and a mix (0: the
// whole 48-voxel row; 13).
func TestRunIntoBitIdenticalAcrossKernelPaths(t *testing.T) {
	if !hostAVX2 {
		t.Skip("host has no AVX2: the Go kernels are the only path")
	}
	defer setKernelPath(hostAVX2)
	d := testDataset(t)
	st, err := BuildEpochStackContext(context.Background(), d, 1)
	if err != nil {
		t.Fatal(err)
	}
	const v0, V = 1, 13
	for _, colBlock := range []int{0, 7, 13, 16} {
		var want *tensor.Matrix
		for _, merged := range []bool{true, false} {
			for _, avx2 := range []bool{false, true} {
				setKernelPath(avx2)
				p := &Pipeline{Workers: 2, Merged: merged, ColBlock: colBlock, VoxBlock: 4}
				out := tensor.NewMatrix(V*st.M(), st.N)
				if err := p.RunInto(context.Background(), st, v0, V, out); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = out
				} else if !out.Equal(want) {
					t.Fatalf("colBlock=%d: merged=%v avx2=%v differs from merged on the Go kernels (max diff %g)",
						colBlock, merged, avx2, out.MaxAbsDiff(want))
				}
			}
		}
	}
}
