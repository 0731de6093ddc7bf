package corr

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"fcma/internal/blas"
	"fcma/internal/fmri"
	"fcma/internal/obs"
	"fcma/internal/safe"
	"fcma/internal/tensor"
)

// fusedStack builds the epoch stack of a generated brain of N voxels.
func fusedStack(t testing.TB, N, subjects, epochsPerSubject int) *EpochStack {
	t.Helper()
	d, err := fmri.Generate(fmri.Spec{
		Name: "fused-test", Voxels: N, Subjects: subjects, EpochsPerSubject: epochsPerSubject,
		EpochLen: 12, RestLen: 2, SignalVoxels: max(1, N/8), Coupling: 0.7, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := BuildEpochStackContext(context.Background(), d, 1)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// unfusedKernels is what the fused stage replaced: the whole (V·M)×N
// buffer from RunInto, then one batched syrk over its V row groups.
func unfusedKernels(t testing.TB, st *EpochStack, merged bool, v0, V int) []*tensor.Matrix {
	t.Helper()
	M := st.M()
	buf := tensor.NewMatrix(V*M, st.N)
	if err := (&Pipeline{Workers: 2, Merged: merged}).RunInto(context.Background(), st, v0, V, buf); err != nil {
		t.Fatal(err)
	}
	As := make([]*tensor.Matrix, V)
	Ks := make([]*tensor.Matrix, V)
	for v := range As {
		As[v] = buf.View(v*M, 0, M, st.N)
		Ks[v] = tensor.NewMatrix(M, M)
	}
	if err := blas.BatchSyrkContext(context.Background(), Ks, As, blas.DefaultSyrkBlock, 2); err != nil {
		t.Fatal(err)
	}
	return Ks
}

// checkFusedMatches fails unless p.RunKernels gives exactly the matrices in
// want.
func checkFusedMatches(t testing.TB, p *Pipeline, st *EpochStack, v0 int, want []*tensor.Matrix, what string) {
	t.Helper()
	got, err := p.RunKernels(context.Background(), st, v0, len(want))
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for v := range want {
		if !got[v].Equal(want[v]) {
			t.Fatalf("%s: kernel of voxel %d differs from RunInto + BatchSyrkContext (max diff %g)",
				what, v0+v, got[v].MaxAbsDiff(want[v]))
		}
	}
}

// The gate of the fusion: with column blocks that are multiples of the
// syrk block, every kernel matrix is RunInto + BatchSyrkContext's to the
// bit — merged or separated, any worker count, any voxel-block height —
// so every downstream equality (scores, SMO iteration counts, cluster ==
// local) keeps vouching for it.
func TestFusedKernelsBitIdenticalToUnfused(t *testing.T) {
	eachKernelPath(t, func(t *testing.T) {
		for _, tc := range []struct {
			name              string
			N, S, E, v0, V    int
			colBlocks, voxBlk []int
		}{
			{"N<96", 48, 3, 4, 1, 13, []int{0, 96}, []int{0, 4}},
			{"N=96k+r", 250, 2, 6, 0, 17, []int{0, 96, 192}, []int{0, 5}},
			{"N>block", 500, 3, 4, 37, 21, []int{96, 192, 384}, []int{0, 8}},
			{"N=block", 192, 2, 4, 3, 9, []int{96, 192}, []int{0, 2}},
			{"one-subject", 130, 1, 12, 100, 30, []int{0, 96}, []int{0, 7}},
			{"one-voxel", 200, 2, 4, 199, 1, []int{0, 96}, []int{0}},
		} {
			t.Run(tc.name, func(t *testing.T) {
				st := fusedStack(t, tc.N, tc.S, tc.E)
				want := unfusedKernels(t, st, true, tc.v0, tc.V)
				for v, sep := range unfusedKernels(t, st, false, tc.v0, tc.V) {
					if !sep.Equal(want[v]) {
						t.Fatalf("voxel %d: separated and merged unfused kernels differ", tc.v0+v)
					}
				}
				for _, cb := range tc.colBlocks {
					for _, vb := range tc.voxBlk {
						for _, workers := range []int{1, 2, 3, 8} {
							p := &Pipeline{Workers: workers, ColBlock: cb, VoxBlock: vb}
							checkFusedMatches(t, p, st, tc.v0, want,
								fmt.Sprintf("ColBlock=%d VoxBlock=%d Workers=%d", cb, vb, workers))
						}
					}
				}
			})
		}
	})
}

// A kernel matrix does not depend on which voxels share its block: the
// derived block height changes with the task size and the worker count
// (min(DefaultVoxBlock, ⌈V/Workers⌉)), the matrices must not.
func TestFusedKernelsIndependentOfBlockMembership(t *testing.T) {
	st := fusedStack(t, 120, 2, 4)
	whole, err := (&Pipeline{Workers: 1}).RunKernels(context.Background(), st, 0, st.N)
	if err != nil {
		t.Fatal(err)
	}
	for _, V := range []int{1, 3, 8, 9, 32} {
		for _, workers := range []int{1, 3} {
			p := &Pipeline{Workers: workers}
			for v0 := 0; v0 < st.N; v0 += V {
				part, err := p.RunKernels(context.Background(), st, v0, min(V, st.N-v0))
				if err != nil {
					t.Fatal(err)
				}
				for v := range part {
					if !part[v].Equal(&whole[v0+v]) {
						t.Fatalf("task size %d, Workers %d: kernel of voxel %d differs from the whole-brain task's", V, workers, v0+v)
					}
				}
			}
		}
	}
}

func TestFusedBlocksDerivation(t *testing.T) {
	for _, tc := range []struct {
		M, V, workers  int
		wantVB, wantCB int
	}{
		{48, 640, 2, 8, 2016},  // facescene_local: one column block covers the brain
		{12, 1024, 2, 8, 8160}, // online_subject
		{96, 32, 1, 8, 960},    // attention_cluster task
		{216, 120, 4, 8, 384},  // the paper's face-scene task
		{540, 120, 4, 8, 96},   // the paper's attention task
		{2000, 8, 1, 8, 96},    // never below one syrk block
		{48, 5, 3, 2, 8160},    // small task: a block per worker
		{48, 1, 8, 1, 16320},
	} {
		st := &EpochStack{Epochs: make([]fmri.Epoch, tc.M)}
		vb, cb := (&Pipeline{Workers: tc.workers}).fusedBlocks(st, tc.V)
		if vb != tc.wantVB || cb != tc.wantCB {
			t.Errorf("M=%d V=%d Workers=%d: blocks %d×%d, want %d×%d", tc.M, tc.V, tc.workers, vb, cb, tc.wantVB, tc.wantCB)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a column block that is not a multiple of the syrk block was accepted")
		}
	}()
	(&Pipeline{ColBlock: 100}).fusedBlocks(&EpochStack{Epochs: make([]fmri.Epoch, 4)}, 8)
}

// The fused run's counters and series: one gemm call per (voxel block,
// column block, epoch), one normalization block per (voxel, subject, column
// block), one timer — and none of the buffer entry's.
func TestFusedCountersAndSeries(t *testing.T) {
	st := fusedStack(t, 250, 3, 4)
	reg := obs.NewRegistry()
	const v0, V, cb, vb = 2, 13, 96, 4
	p := &Pipeline{Workers: 2, ColBlock: cb, VoxBlock: vb, Obs: reg}
	if _, err := p.RunKernels(context.Background(), st, v0, V); err != nil {
		t.Fatal(err)
	}
	nBlocks, vBlocks := (st.N+cb-1)/cb, (V+vb-1)/vb
	if got, want := reg.Counter("corr_gemm_calls_total").Value(), uint64(vBlocks*nBlocks*st.M()); got != want {
		t.Errorf("corr_gemm_calls_total = %d, want %d", got, want)
	}
	if got, want := reg.Counter("corr_norm_blocks_total").Value(), uint64(V*st.Subjects*nBlocks); got != want {
		t.Errorf("corr_norm_blocks_total = %d, want %d", got, want)
	}
	hists := reg.Snapshot().Hists
	if hists["stage_corr_fused_seconds"].Count != 1 {
		t.Errorf("stage_corr_fused_seconds count = %d, want 1", hists["stage_corr_fused_seconds"].Count)
	}
	for _, other := range []string{"stage_corr_merged_seconds", "stage_corr_correlate_seconds", "stage_corr_normalize_seconds"} {
		if _, ok := hists[other]; ok {
			t.Errorf("fused run exports %s, a stage it never runs", other)
		}
	}
}

// panicGemm fails the way a kernel bug would.
type panicGemm struct{}

func (panicGemm) Gemm(C, A, B *tensor.Matrix) { panic("injected stage-1 failure") }

func TestFusedContainsPanicAndHonoursContext(t *testing.T) {
	st := fusedStack(t, 60, 2, 4)
	for _, workers := range []int{1, 3} {
		p := &Pipeline{Workers: workers, Gemm: panicGemm{}, VoxBlock: 4}
		_, err := p.RunKernels(context.Background(), st, 10, 9)
		var pe *safe.PipelineError
		if !errors.As(err, &pe) {
			t.Fatalf("Workers=%d: err = %v (%T), want *safe.PipelineError", workers, err, err)
		}
		// Blocks are [10,14) [14,18) [18,19); whichever failed first names itself.
		if pe.Stage != "corr/fused" || (pe.V0-10)%4 != 0 || pe.V0 < 10 || pe.V0+pe.V > 19 || pe.V != min(4, 19-pe.V0) {
			t.Fatalf("Workers=%d: error names stage %q voxels [%d,%d), want corr/fused and one block of [10,19)", workers, pe.Stage, pe.V0, pe.V0+pe.V)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reg := obs.NewRegistry()
	p := &Pipeline{Workers: 2, Obs: reg}
	if _, err := p.RunKernels(ctx, st, 0, st.N); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if n := reg.Counter("corr_gemm_calls_total").Value(); n != 0 {
		t.Fatalf("cancelled run made %d gemm calls, want none", n)
	}
	if _, err := p.RunKernels(context.Background(), st, 50, 11); err == nil {
		t.Fatal("voxel range past the brain accepted")
	}
}

// A warm fused run allocates its kernels (one slab, one header slice), the
// item closure and nothing that grows with the task or the brain: no work
// item allocates and there is no (V·M)×N buffer.
func TestFusedAllocsIndependentOfTaskAndBrain(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	eachKernelPath(t, func(t *testing.T) {
		allocs := func(N, V int) float64 {
			st := fusedStack(t, N, 2, 4)
			p := &Pipeline{Workers: 1}
			run := func() {
				if _, err := p.RunKernels(context.Background(), st, 0, V); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm pools + instruments
			return testing.AllocsPerRun(10, run)
		}
		base := allocs(100, 8)
		if base > 4 {
			t.Fatalf("warm RunKernels allocates %v objects per run, want at most 4 (kernel slab, headers, item closure, timer)", base)
		}
		for _, sh := range [][2]int{{100, 32}, {400, 8}, {400, 32}} {
			if got := allocs(sh[0], sh[1]); got != base {
				t.Fatalf("warm RunKernels allocates %v objects at N=%d V=%d but %v at N=100 V=8: something grows with the task", got, sh[0], sh[1], base)
			}
		}
	})
}

// FuzzFusedMatchesUnfused drives the bit pin over random small shapes:
// brain size, task range, subject and epoch counts, worker count.
func FuzzFusedMatchesUnfused(f *testing.F) {
	f.Add(uint16(48), uint8(13), uint8(1), uint8(3), uint8(4), uint8(2))
	f.Add(uint16(250), uint8(17), uint8(0), uint8(1), uint8(6), uint8(3))
	f.Add(uint16(97), uint8(1), uint8(96), uint8(2), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, n uint16, v, v0, s, e, workers uint8) {
		N := 2 + int(n)%300
		S, E := 1+int(s)%3, 2*(1+int(e)%3)
		V0 := int(v0) % N
		V := 1 + int(v)%min(24, N-V0)
		st := fusedStack(t, N, S, E)
		want := unfusedKernels(t, st, true, V0, V)
		for _, cb := range []int{0, 96} {
			p := &Pipeline{Workers: 1 + int(workers)%4, ColBlock: cb}
			checkFusedMatches(t, p, st, V0, want, fmt.Sprintf("N=%d V0=%d V=%d S=%d E=%d ColBlock=%d", N, V0, V, S, E, cb))
		}
	})
}
