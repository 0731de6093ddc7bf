package corr

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

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
	// The mirrored walk's tile width: the most slices whose tile fits half
	// of fusedLocalBytes, M counted padded to a multiple of 4.
	for M, want := range map[int]int{10: 3, 12: 3, 18: 2, 24: 1, 36: 1, 40: 1, 44: 0, 48: 0, 54: 0, 96: 0} {
		if k := tileSlices(M); k != want {
			t.Errorf("M=%d: mirrored tile width %d slices, want %d", M, k, want)
		}
	}
	// Its take rule: whole-brain tasks whose first block row has more
	// tiles than there are workers.
	for _, tc := range []struct {
		M, N, v0, V, workers, wantK int
	}{
		{12, 1024, 0, 1024, 2, 3}, // online_subject: 11 slices, 4 tiles in the first row
		{12, 1024, 0, 1024, 3, 3},
		{12, 1024, 0, 1024, 4, 0},
		{12, 600, 0, 600, 2, 3},
		{12, 500, 0, 500, 2, 0}, // 6 slices: 2 tiles for 2 workers
		{12, 300, 0, 300, 1, 3},
		{12, 200, 0, 200, 1, 0},
		{18, 1024, 0, 1024, 2, 2},
		{18, 384, 0, 384, 2, 0},
		{24, 1024, 0, 1024, 2, 1},
		{24, 193, 0, 193, 2, 1},
		{36, 172, 0, 172, 1, 1}, // serve_smalljobs' M = 36 reference
		{36, 172, 0, 172, 2, 0},
		{48, 640, 0, 640, 1, 0},   // facescene_local: one slice is 1.77 MB
		{54, 1024, 0, 1024, 1, 0}, // serve_smalljobs' M = 54 datasets
		{96, 1024, 0, 1024, 1, 0}, // the attention reference
		{12, 96, 0, 96, 1, 0},     // one slice
		{12, 50, 0, 50, 1, 0},
		{12, 1024, 0, 1000, 1, 0}, // range tasks
		{12, 1024, 24, 1000, 1, 0},
	} {
		st := &EpochStack{Epochs: make([]fmri.Epoch, tc.M), N: tc.N}
		if k := (&Pipeline{Workers: tc.workers}).mirrorSlices(st, tc.v0, tc.V); k != tc.wantK {
			t.Errorf("M=%d N=%d task [%d,%d) Workers=%d: mirrored tile width %d slices, want %d", tc.M, tc.N, tc.v0, tc.v0+tc.V, tc.workers, k, tc.wantK)
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

	// A whole-brain task on the mirrored walk: one gemm call per (tile,
	// epoch), one normalization block per (tile row voxel, subject).
	whole := fusedStack(t, 700, 3, 4)
	k := (&Pipeline{Workers: 2}).mirrorSlices(whole, 0, whole.N)
	if k == 0 {
		t.Fatal("a whole-brain task at M = 12 takes the row walk")
	}
	reg = obs.NewRegistry()
	if _, err := (&Pipeline{Workers: 2, Obs: reg}).RunKernels(context.Background(), whole, 0, whole.N); err != nil {
		t.Fatal(err)
	}
	const b = blas.DefaultSyrkBlock
	slices := (whole.N + b - 1) / b
	var tiles, tileVoxels int
	for I := 0; I < slices; I++ {
		n := (slices - I + k - 1) / k
		tiles += n
		tileVoxels += n * min(b, whole.N-I*b)
	}
	if got, want := reg.Counter("corr_gemm_calls_total").Value(), uint64(tiles*whole.M()); got != want {
		t.Errorf("whole brain: corr_gemm_calls_total = %d, want %d (%d tiles)", got, want, tiles)
	}
	if got, want := reg.Counter("corr_norm_blocks_total").Value(), uint64(tileVoxels*whole.Subjects); got != want {
		t.Errorf("whole brain: corr_norm_blocks_total = %d, want %d", got, want)
	}
	hists = reg.Snapshot().Hists
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
	// The mirrored walk's items wait on each other's terms: a failing item
	// must end those waits, and so must a cancel, at any worker count.
	whole := fusedStack(t, 500, 2, 4)
	k := tileSlices(whole.M())
	for _, workers := range []int{1, 3, 8} {
		for _, tc := range []struct {
			name string
			gemm func(cancel context.CancelFunc) blas.Sgemm
		}{
			{"every tile fails", func(context.CancelFunc) blas.Sgemm { return panicGemm{} }},
			{"first tile fails late", func(context.CancelFunc) blas.Sgemm { return firstTileFails{whole} }},
			{"cancelled mid-run", func(cancel context.CancelFunc) blas.Sgemm { return &cancelOnFirstGemm{cancel: cancel} }},
		} {
			ctx, cancel := context.WithCancel(context.Background())
			err := runWithin(t, 30*time.Second, func() error {
				_, err := (&Pipeline{Workers: workers, Gemm: tc.gemm(cancel)}).runKernels(ctx, whole, 0, whole.N, k)
				return err
			})
			cancel()
			what := fmt.Sprintf("whole brain, %s, Workers=%d", tc.name, workers)
			if tc.name == "cancelled mid-run" {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: err = %v, want context.Canceled", what, err)
				}
				continue
			}
			var pe *safe.PipelineError
			if !errors.As(err, &pe) {
				t.Fatalf("%s: err = %v (%T), want *safe.PipelineError", what, err, err)
			}
			const b = blas.DefaultSyrkBlock
			if pe.Stage != "corr/fused" || pe.V0%b != 0 || pe.V != min(b, whole.N-pe.V0) {
				t.Fatalf("%s: error names stage %q voxels [%d,%d), want corr/fused and one tile row", what, pe.Stage, pe.V0, pe.V0+pe.V)
			}
			if tc.name == "first tile fails late" && pe.V0 != 0 {
				t.Fatalf("%s: error names voxels [%d,%d), want the failing tile's [0,%d)", what, pe.V0, pe.V0+pe.V, b)
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (&Pipeline{Workers: 3}).runKernels(ctx, whole, 0, whole.N, k); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled whole-brain run returned %v, want context.Canceled", err)
	}
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

// firstTileFails is the tall-skinny gemm, except that the product against
// the brain's first columns in epoch 0 — the mirrored walk's first item,
// whose terms the items claimed beside it wait for — sleeps, then panics.
type firstTileFails struct{ st *EpochStack }

func (f firstTileFails) Gemm(C, A, B *tensor.Matrix) {
	if &B.Data[0] == &f.st.Norm[0].Data[0] {
		time.Sleep(50 * time.Millisecond)
		panic("injected failure in the first tile")
	}
	defaultGemm.Gemm(C, A, B)
}

// cancelOnFirstGemm is the tall-skinny gemm that cancels the run's context
// on its first call.
type cancelOnFirstGemm struct {
	once   sync.Once
	cancel context.CancelFunc
}

func (c *cancelOnFirstGemm) Gemm(C, A, B *tensor.Matrix) {
	c.once.Do(c.cancel)
	defaultGemm.Gemm(C, A, B)
}

// runWithin returns f's error, failing the test if f has not returned
// within d: a hung walk is a failure, not a stuck suite. The hung f is
// left running.
func runWithin(t *testing.T, d time.Duration, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("the run did not return within %v", d)
		return nil
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
			p, k := &Pipeline{Workers: 1}, 0
			if V == N {
				k = tileSlices(st.M()) // the mirrored walk, taken or not at this size
			}
			run := func() {
				if _, err := p.runKernels(context.Background(), st, 0, V, k); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the pools and the stage histogram
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
		// The mirrored walk adds its turns (a header and the counters) and
		// the hook that stops them on a cancel (three), and nothing per tile.
		at200, at400 := allocs(200, 200), allocs(400, 400)
		if at200 > base+5 {
			t.Fatalf("warm mirrored walk allocates %v objects per run, want at most %v", at200, base+5)
		}
		if at400 != at200 {
			t.Fatalf("warm mirrored walk allocates %v objects at N=400 but %v at N=200: something grows with the brain", at400, at200)
		}
	})
}

// FuzzFusedMatchesUnfused drives the bit pin over random small shapes:
// brain size, task range (a quarter of them the whole brain), subject and
// epoch counts, worker count.
func FuzzFusedMatchesUnfused(f *testing.F) {
	f.Add(uint16(48), uint8(13), uint8(1), uint8(3), uint8(4), uint8(2))
	f.Add(uint16(250), uint8(17), uint8(0), uint8(1), uint8(6), uint8(3))
	f.Add(uint16(97), uint8(1), uint8(96), uint8(2), uint8(2), uint8(1))
	// Whole-brain tasks (v % 4 == 3), the mirrored walk's: M = 6, M = 8.
	f.Add(uint16(248), uint8(3), uint8(0), uint8(2), uint8(0), uint8(2))
	f.Add(uint16(298), uint8(7), uint8(0), uint8(1), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, n uint16, v, v0, s, e, workers uint8) {
		N := 2 + int(n)%300
		S, E := 1+int(s)%3, 2*(1+int(e)%3)
		V0 := int(v0) % N
		V := 1 + int(v)%min(24, N-V0)
		if v%4 == 3 {
			V0, V = 0, N
		}
		st := fusedStack(t, N, S, E)
		want := unfusedKernels(t, st, true, V0, V)
		for _, cb := range []int{0, 96} {
			p := &Pipeline{Workers: 1 + int(workers)%4, ColBlock: cb}
			checkFusedMatches(t, p, st, V0, want, fmt.Sprintf("N=%d V0=%d V=%d S=%d E=%d ColBlock=%d", N, V0, V, S, E, cb))
		}
		if V < N || N <= blas.DefaultSyrkBlock {
			return
		}
		// The mirrored walk, which the take rule leaves to larger brains.
		got, err := (&Pipeline{Workers: 1 + int(workers)%4}).runKernels(context.Background(), st, 0, N, tileSlices(st.M()))
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if !got[v].Equal(want[v]) {
				t.Fatalf("N=%d S=%d E=%d mirrored: kernel of voxel %d differs from RunInto + BatchSyrkContext", N, S, E, v)
			}
		}
	})
}

// mirroredShapes are the bit table's epoch splits: M = subjects × epochs,
// M = 10 and M = 18 with padded tile rows.
var mirroredShapes = []struct{ S, E int }{{1, 10}, {2, 6}, {3, 6}, {2, 12}, {3, 12}}

// The mirrored walk's gate: a whole-brain task's kernels are the row
// walk's to the bit, at every worker count and kernel path, whatever the
// tile width — the rule's and one slice — with a ragged last slice (97,
// 193, 250, 500) and at the online shape (N 1024, M 12). The Go twins'
// software FMA is two orders slower, so the Go path stops at N 193 and
// runs the rule's width at Workers 1 and 3.
func TestMirroredWalkBitIdenticalToRowWalk(t *testing.T) {
	eachKernelPath(t, func(t *testing.T) {
		for _, N := range []int{97, 193, 250, 500, 1024} {
			for _, sh := range mirroredShapes {
				if N == 1024 && sh.S*sh.E != 12 || N > 193 && blasLanes == 0 {
					continue
				}
				st := fusedStack(t, N, sh.S, sh.E)
				want, err := (&Pipeline{Workers: 2}).runKernels(context.Background(), st, 0, N, 0)
				if err != nil {
					t.Fatal(err)
				}
				workers, widths := []int{1, 2, 3, 8}, []int{tileSlices(st.M()), 1}
				if blasLanes == 0 {
					workers, widths = []int{1, 3}, widths[:1]
				}
				for _, workers := range workers {
					for _, width := range widths {
						var got []tensor.Matrix
						err := runWithin(t, time.Minute, func() (err error) {
							got, err = (&Pipeline{Workers: workers}).runKernels(context.Background(), st, 0, N, width)
							return err
						})
						if err != nil {
							t.Fatal(err)
						}
						for v := range want {
							if !got[v].Equal(&want[v]) {
								t.Fatalf("N=%d M=%d Workers=%d k=%d: kernel of voxel %d differs from the row walk's (max diff %g)",
									N, st.M(), workers, width, v, got[v].MaxAbsDiff(&want[v]))
							}
						}
					}
				}
			}
		}
	})
}

// BenchmarkFusedWalks runs a whole-brain task on each walk: at M 12 from
// N 200, where the rule keeps the row walk at any worker count, to the
// online shape (N 1024), and at the face-scene shape (N 640, M 48), where
// no tile fits.
func BenchmarkFusedWalks(b *testing.B) {
	for _, sh := range []struct{ N, S, E int }{{200, 1, 12}, {500, 1, 12}, {600, 1, 12}, {1024, 1, 12}, {640, 2, 24}} {
		st := fusedStack(b, sh.N, sh.S, sh.E)
		for _, walk := range []struct {
			name string
			k    int
		}{{"rows", 0}, {"mirrored", max(1, tileSlices(st.M()))}} {
			b.Run(fmt.Sprintf("N%d_M%d/%s", sh.N, st.M(), walk.name), func(b *testing.B) {
				p := &Pipeline{}
				for b.Loop() {
					if _, err := p.runKernels(context.Background(), st, 0, sh.N, walk.k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
