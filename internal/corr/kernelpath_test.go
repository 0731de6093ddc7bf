package corr

import (
	"context"
	"testing"
	_ "unsafe" // go:linkname

	"fcma/internal/tensor"
)

// blasUseAVX2 is internal/blas's unexported kernel dispatch variable,
// reached by linkname so the pipeline's equivalence tests can run on both
// kernel paths without blas exporting a switch nobody else should touch.
//
//go:linkname blasUseAVX2 fcma/internal/blas.useAVX2
var blasUseAVX2 bool

// hostAVX2 is the probe's verdict, read before any test rewrites it.
var hostAVX2 = blasUseAVX2

// eachKernelPath runs f as a subtest on the Go kernels and on the AVX2
// kernels; the AVX2 half skips on a host without them.
func eachKernelPath(t *testing.T, f func(t *testing.T)) {
	defer func() { blasUseAVX2 = hostAVX2 }()
	t.Run("go", func(t *testing.T) {
		blasUseAVX2 = false
		f(t)
	})
	t.Run("avx2", func(t *testing.T) {
		if !hostAVX2 {
			t.Skip("host has no AVX2")
		}
		blasUseAVX2 = true
		f(t)
	})
}

// The pipeline's output must not depend on which kernels ran stage 1:
// the AVX2 gemm strips are bit-pinned to the Go ones, so merged and
// separated runs agree to the last bit across the dispatch setting, on
// column blocks that are all vector groups (16), all scalar tail (7) and
// a mix (0: the whole 48-voxel row; 13).
func TestRunIntoBitIdenticalAcrossKernelPaths(t *testing.T) {
	if !hostAVX2 {
		t.Skip("host has no AVX2: the Go kernels are the only path")
	}
	defer func() { blasUseAVX2 = hostAVX2 }()
	d := testDataset(t)
	st, err := BuildEpochStack(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	const v0, V = 1, 13
	for _, merged := range []bool{true, false} {
		for _, colBlock := range []int{0, 7, 13, 16} {
			p := &Pipeline{Workers: 2, Merged: merged, ColBlock: colBlock, VoxBlock: 4}
			var out [2]*tensor.Matrix
			for i, avx2 := range []bool{false, true} {
				blasUseAVX2 = avx2
				out[i] = tensor.NewMatrix(V*st.M(), st.N)
				if err := p.RunInto(context.Background(), st, v0, V, out[i]); err != nil {
					t.Fatal(err)
				}
			}
			if !out[1].Equal(out[0]) {
				t.Fatalf("merged=%v colBlock=%d: AVX2 kernels differ from the Go kernels (max diff %g)",
					merged, colBlock, out[1].MaxAbsDiff(out[0]))
			}
		}
	}
}
