package core

import (
	"context"
	"testing"
	_ "unsafe" // go:linkname
)

// blasLanes is internal/blas's kernel path (0 Go, 8 YMM, 16 ZMM), the one
// switch that the gemm strips and syrk tiles in blas, the Fisher + z-score
// sweep in norm and the solver in svm all dispatch on, reached by linkname
// so the task-level equivalence tests can run on every kernel path
// without blas exporting a setter nobody else should touch.
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

// setKernelPath routes every stage's kernels — the products of stages 1
// and 3 in blas, stage 2 in norm, the solver in svm — to the Go twins (0)
// or to the YMM (8) or ZMM (16) assembly; svm's SMO loop has one vector
// form, which both vector paths run, and its mat-vec two.
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

// A whole task — merged correlate+normalize, batched syrk, SVM
// cross-validation — scores every voxel the same on every kernel path:
// the gemm strips, the normalization sweep, the syrk tile and the SMO sweep
// all switch together.
func TestScoresIdenticalAcrossKernelPaths(t *testing.T) {
	if hostLanes == 0 {
		t.Skip("host has no AVX2 + FMA: the Go kernels are the only path")
	}
	defer setKernelPath(hostLanes)
	_, st := testStack(t, 40, 3, 6)
	cfg := Optimized()
	cfg.Workers = 1
	var scores [3][]VoxelScore
	for i, path := range kernelPaths {
		if path.lanes > hostLanes {
			scores[i] = scores[0]
			continue
		}
		setKernelPath(path.lanes)
		w, err := NewWorker(cfg, st, nil)
		if err != nil {
			t.Fatal(err)
		}
		if scores[i], err = w.ProcessContext(context.Background(), Task{V0: 0, V: 40}); err != nil {
			t.Fatal(err)
		}
	}
	for p := 1; p < len(scores); p++ {
		for i := range scores[0] {
			if scores[0][i] != scores[p][i] {
				t.Fatalf("voxel %d: %s kernels score %+v, Go kernels %+v", i, kernelPaths[p].name, scores[p][i], scores[0][i])
			}
		}
	}
}
