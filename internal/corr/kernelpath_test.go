package corr

import (
	"context"
	"testing"
	_ "unsafe" // go:linkname

	"fcma/internal/tensor"
)

// blasLanes is internal/blas's kernel path (0 Go, 8 YMM, 16 ZMM), the one
// switch that stage 1's gemm strips and stage 2's sweep both dispatch on,
// reached by linkname so the pipeline's equivalence tests can run on every
// kernel path without blas exporting a setter nobody else should touch.
//
//go:linkname blasLanes fcma/internal/blas.lanes
var blasLanes int

// hostLanes is the probe's verdict, read before any test rewrites it.
var hostLanes = blasLanes

// kernelPaths names each path by the blas lane count it runs.
var kernelPaths = []struct {
	name  string
	lanes int
}{{"go", 0}, {"avx2", 8}, {"avx512", 16}}

// setKernelPath routes both stages' kernels to the Go twins (0) or to the
// YMM (8) or ZMM (16) assembly.
func setKernelPath(lanes int) { blasLanes = lanes }

// eachKernelPath runs f as a subtest on every kernel path; a vector path
// skips on a host that cannot run it.
func eachKernelPath(t *testing.T, f func(t *testing.T)) {
	defer setKernelPath(hostLanes)
	for _, p := range kernelPaths {
		t.Run(p.name, func(t *testing.T) {
			if p.lanes > hostLanes {
				t.Skipf("host runs %d-lane kernels at most", hostLanes)
			}
			setKernelPath(p.lanes)
			f(t)
		})
	}
}

// The pipeline's output must not depend on which kernels ran it, nor on
// whether the stages were merged: the AVX2 gemm strips and the AVX2 sweep
// are bit-pinned to the Go ones, and both variants normalize the same
// correlations, so all four runs agree to the last bit — on column blocks
// that are all vector groups (16), all remainder (7) and a mix (0: the
// whole 48-voxel row; 13).
func TestRunIntoBitIdenticalAcrossKernelPaths(t *testing.T) {
	if hostLanes == 0 {
		t.Skip("host has no AVX2 + FMA: the Go kernels are the only path")
	}
	defer setKernelPath(hostLanes)
	d := testDataset(t)
	st, err := BuildEpochStackContext(context.Background(), d, 1)
	if err != nil {
		t.Fatal(err)
	}
	const v0, V = 1, 13
	for _, colBlock := range []int{0, 7, 13, 16} {
		var want *tensor.Matrix
		for _, merged := range []bool{true, false} {
			for _, path := range kernelPaths {
				if path.lanes > hostLanes {
					continue
				}
				setKernelPath(path.lanes)
				p := &Pipeline{Workers: 2, Merged: merged, ColBlock: colBlock, VoxBlock: 4}
				out := tensor.NewMatrix(V*st.M(), st.N)
				if err := p.RunInto(context.Background(), st, v0, V, out); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = out
				} else if !out.Equal(want) {
					t.Fatalf("colBlock=%d: merged=%v %s differs from merged on the Go kernels (max diff %g)",
						colBlock, merged, path.name, out.MaxAbsDiff(want))
				}
			}
		}
	}
}
