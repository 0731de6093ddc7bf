package corr

import (
	"context"
	"testing"

	"fcma/internal/fmri"
	"fcma/internal/obs"
)

// degenerateDataset returns the standard test dataset with some voxels
// forced to zero variance (constant over all time): every correlation
// involving them is 0 by the library's degenerate-input convention, which
// makes their normalization populations zero-variance too — the exact
// corner where the merged and separated stage-2 paths could diverge.
func degenerateDataset(t testing.TB) (*fmri.Dataset, []int) {
	d := testDataset(t)
	flat := []int{0, 5, 17}
	for _, v := range flat {
		for tp := 0; tp < d.TimePoints(); tp++ {
			d.Data.Set(v, tp, 3.5)
		}
	}
	return d, flat
}

// TestMergedEqualsSeparatedZeroVariance pins that the merged and the
// separated path (one norm sweep, compact and strided blocks) agree on
// zero-variance columns — both leave them exactly 0 rather than dividing
// by a zero standard deviation.
func TestMergedEqualsSeparatedZeroVariance(t *testing.T) {
	eachKernelPath(t, testMergedEqualsSeparatedZeroVariance)
}

func testMergedEqualsSeparatedZeroVariance(t *testing.T) {
	d, flat := degenerateDataset(t)
	st, err := BuildEpochStackContext(context.Background(), d, 0)
	if err != nil {
		t.Fatal(err)
	}
	V := st.N
	sep := &Pipeline{Workers: 2, Merged: false}
	mer := &Pipeline{Workers: 2, Merged: true}
	a := run(t, sep, st, 0, V)
	b := run(t, mer, st, 0, V)
	if !a.EqualApprox(b, 1e-4) {
		t.Fatalf("merged and separated disagree on degenerate input, max diff %g", a.MaxAbsDiff(b))
	}
	// Flat voxels' correlation columns must come out exactly zero in both
	// paths — no NaN, no ±Inf from a 1/sqrt(0) scale.
	M := st.M()
	for _, fv := range flat {
		for v := 0; v < V; v++ {
			for e := 0; e < M; e++ {
				if got := a.At(v*M+e, fv); got != 0 {
					t.Fatalf("separated: voxel %d epoch %d vs flat voxel %d = %v, want exactly 0", v, e, fv, got)
				}
				if got := b.At(v*M+e, fv); got != 0 {
					t.Fatalf("merged: voxel %d epoch %d vs flat voxel %d = %v, want exactly 0", v, e, fv, got)
				}
			}
		}
	}
}

// TestMergedEqualsSeparatedRaggedBlocks checks the fused path when the
// final voxel block and the final column block are both partial: V=13 with
// VoxBlock=4 (blocks 4,4,4,1) and N=48 with ColBlock=7 (last block 6).
func TestMergedEqualsSeparatedRaggedBlocks(t *testing.T) {
	eachKernelPath(t, testMergedEqualsSeparatedRaggedBlocks)
}

func testMergedEqualsSeparatedRaggedBlocks(t *testing.T) {
	d := testDataset(t)
	st, err := BuildEpochStackContext(context.Background(), d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.N%7 == 0 {
		t.Fatalf("test needs N (%d) not divisible by the column block 7", st.N)
	}
	const v0, V = 1, 13
	sep := &Pipeline{Workers: 2, Merged: false}
	for _, vb := range []int{4, 5} {
		mer := &Pipeline{Workers: 3, Merged: true, ColBlock: 7, VoxBlock: vb}
		a := run(t, sep, st, v0, V)
		b := run(t, mer, st, v0, V)
		if !a.EqualApprox(b, 1e-4) {
			t.Fatalf("VoxBlock=%d: ragged merged and separated disagree, max diff %g",
				vb, a.MaxAbsDiff(b))
		}
	}
}

// TestGemmCallCounterMatchesPrediction runs both pipeline variants against
// isolated registries and checks corr_gemm_calls_total lands exactly on
// the closed-form call count: M calls for the separated path (one per
// epoch), vBlocks·nBlocks·Subjects·E for the merged path.
func TestGemmCallCounterMatchesPrediction(t *testing.T) {
	d := testDataset(t)
	st, err := BuildEpochStackContext(context.Background(), d, 0)
	if err != nil {
		t.Fatal(err)
	}
	const v0, V, cb, vb = 0, 13, 7, 4

	sepReg := obs.NewRegistry()
	sep := &Pipeline{Workers: 2, Obs: sepReg}
	run(t, sep, st, v0, V)
	if got, want := sepReg.Counter("corr_gemm_calls_total").Value(), uint64(st.M()); got != want {
		t.Errorf("separated corr_gemm_calls_total = %d, want %d", got, want)
	}
	if got, want := sepReg.Counter("corr_norm_blocks_total").Value(), uint64(V*st.Subjects); got != want {
		t.Errorf("separated corr_norm_blocks_total = %d, want %d", got, want)
	}

	merReg := obs.NewRegistry()
	mer := &Pipeline{Workers: 2, Merged: true, ColBlock: cb, VoxBlock: vb, Obs: merReg}
	run(t, mer, st, v0, V)
	nBlocks := (st.N + cb - 1) / cb
	vBlocks := (V + vb - 1) / vb
	want := uint64(vBlocks * nBlocks * st.Subjects * st.E)
	if got := merReg.Counter("corr_gemm_calls_total").Value(); got != want {
		t.Errorf("merged corr_gemm_calls_total = %d, want %d", got, want)
	}
	// One FisherThenZScore call per (voxel, subject, column block) item.
	wantNorm := uint64(V * st.Subjects * nBlocks)
	if got := merReg.Counter("corr_norm_blocks_total").Value(); got != wantNorm {
		t.Errorf("merged corr_norm_blocks_total = %d, want %d", got, wantNorm)
	}

	// Stage timers are recorded under the configured mode's names, and
	// the other mode's series are not exported at all (not even at count 0).
	stages := map[*obs.Registry][]string{
		sepReg: {"stage_corr_correlate_seconds", "stage_corr_normalize_seconds"},
		merReg: {"stage_corr_merged_seconds"},
	}
	for reg, own := range stages {
		hists := reg.Snapshot().Hists
		for _, stage := range own {
			if h, ok := hists[stage]; !ok || h.Count == 0 {
				t.Errorf("missing %s observation in %+v", stage, hists)
			}
		}
		for other, theirs := range stages {
			if other == reg {
				continue
			}
			for _, stage := range theirs {
				if _, ok := hists[stage]; ok {
					t.Errorf("run exports %s, a stage its mode never runs", stage)
				}
			}
		}
	}
}
