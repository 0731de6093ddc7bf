package corr

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fcma/internal/blas"
	"fcma/internal/fmri"
	"fcma/internal/ref"
	"fcma/internal/tensor"
)

func testDataset(t testing.TB) *fmri.Dataset {
	t.Helper()
	d, err := fmri.Generate(fmri.Spec{
		Name:             "corr-test",
		Voxels:           48,
		Subjects:         3,
		EpochsPerSubject: 4,
		EpochLen:         12,
		RestLen:          3,
		SignalVoxels:     8,
		Coupling:         0.8,
		Seed:             7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// run is RunContext for tests that have nothing to cancel.
func run(t testing.TB, p *Pipeline, st *EpochStack, v0, V int) *tensor.Matrix {
	t.Helper()
	buf, err := p.RunContext(context.Background(), st, v0, V)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// rawCorrelations is stage 1 alone: correlations before any normalization.
func rawCorrelations(t testing.TB, p *Pipeline, st *EpochStack, v0, V int) *tensor.Matrix {
	t.Helper()
	buf := tensor.NewMatrix(V*st.M(), st.N)
	if err := p.computeCorrelations(context.Background(), st, v0, V, buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestPearsonReference(t *testing.T) {
	x := []float32{1, 2, 3, 4}
	if r := pearson(x, x); math.Abs(r-1) > 1e-6 {
		t.Fatalf("self correlation = %v", r)
	}
	y := []float32{4, 3, 2, 1}
	if r := pearson(x, y); math.Abs(r+1) > 1e-6 {
		t.Fatalf("anti correlation = %v", r)
	}
	c := []float32{5, 5, 5, 5}
	if r := pearson(x, c); r != 0 {
		t.Fatalf("constant vector correlation = %v", r)
	}
}

// Regression test for the degenerate-input convention: constant vectors
// used to produce NaN through 0/0 in some float paths, and non-finite
// samples propagated NaN into every correlation they touched. All such
// inputs must map to exactly 0 so downstream Fisher transforms and SVM
// kernels stay finite.
func TestPearsonDegenerateInputsAreZero(t *testing.T) {
	x := []float32{1, 2, 3, 4}
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	cases := []struct {
		name string
		a, b []float32
	}{
		{"both constant", []float32{2, 2, 2, 2}, []float32{7, 7, 7, 7}},
		{"constant zero", []float32{0, 0, 0, 0}, x},
		{"NaN sample", []float32{1, nan, 3, 4}, x},
		{"Inf sample", []float32{1, inf, 3, 4}, x},
		{"-Inf sample", x, []float32{1, float32(math.Inf(-1)), 3, 4}},
		{"all NaN", []float32{nan, nan, nan, nan}, x},
		{"empty", nil, nil},
	}
	for _, tc := range cases {
		if r := pearson(tc.a, tc.b); r != 0 {
			t.Errorf("%s: Pearson = %v, want 0", tc.name, r)
		}
	}
}

// normalizeRows runs normalizeVector, the stack builder's eq. 2, over every
// row of src.
func normalizeRows(dst, src *tensor.Matrix) {
	for i := 0; i < src.Rows; i++ {
		normalizeVector(dst.Row(i), src.Row(i))
	}
}

func TestNormalizedDotEqualsPearson(t *testing.T) {
	// The core reduction (eqs. 2–3): dot of eq.2-normalized vectors equals
	// Pearson correlation.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		src := tensor.NewMatrix(2, n)
		for i := range src.Data {
			src.Data[i] = rng.Float32()*10 - 5
		}
		dst := tensor.NewMatrix(2, n)
		normalizeRows(dst, src)
		dot := tensor.Dot(dst.Row(0), dst.Row(1))
		ref := pearson(src.Row(0), src.Row(1))
		return math.Abs(dot-ref) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeEpochRowsZeroVariance(t *testing.T) {
	src := tensor.NewMatrix(1, 5)
	src.Fill(3)
	dst := tensor.NewMatrix(1, 5)
	dst.Fill(99)
	normalizeRows(dst, src)
	for _, v := range dst.Data {
		if v != 0 {
			t.Fatal("constant row must normalize to zeros")
		}
	}
}

func TestNormalizeEpochRowsUnitNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := tensor.NewMatrix(4, 10)
	for i := range src.Data {
		src.Data[i] = rng.Float32()
	}
	dst := tensor.NewMatrix(4, 10)
	normalizeRows(dst, src)
	for i := 0; i < 4; i++ {
		if n := tensor.Dot(dst.Row(i), dst.Row(i)); math.Abs(n-1) > 1e-5 {
			t.Fatalf("row %d norm² = %v, want 1", i, n)
		}
	}
}

func TestBuildEpochStack(t *testing.T) {
	d := testDataset(t)
	st, err := BuildEpochStackContext(context.Background(), d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.M() != len(d.Epochs) || st.N != d.Voxels() || st.T != 12 || st.E != 4 || st.Subjects != 3 {
		t.Fatalf("stack shape: M=%d N=%d T=%d E=%d S=%d", st.M(), st.N, st.T, st.E, st.Subjects)
	}
	// Spot check: Norm[e][t][v] equals the eq.2 normalization of the raw
	// epoch vector.
	e := 5
	ep := d.Epochs[e]
	raw := d.Data.Row(7)[ep.Start : ep.Start+ep.Len]
	want := make([]float32, len(raw))
	normalizeVector(want, raw)
	for tt := 0; tt < st.T; tt++ {
		if got := st.Norm[e].At(tt, 7); got != want[tt] {
			t.Fatalf("stack value (%d,%d): %v vs %v", tt, 7, got, want[tt])
		}
	}
}

func TestBuildEpochStackRejectsInvalid(t *testing.T) {
	d := testDataset(t)
	d.Epochs[0].Label = 5
	if _, err := BuildEpochStackContext(context.Background(), d, 1); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestBuildEpochStackRejectsUnorderedSubjects(t *testing.T) {
	d := testDataset(t)
	// Swap epochs of subject 0 and subject 2.
	last := len(d.Epochs) - 1
	d.Epochs[0], d.Epochs[last] = d.Epochs[last], d.Epochs[0]
	if _, err := BuildEpochStackContext(context.Background(), d, 1); err == nil {
		t.Fatal("expected subject-order error")
	}
}

func TestGatherAssigned(t *testing.T) {
	d := testDataset(t)
	st, err := BuildEpochStackContext(context.Background(), d, 1)
	if err != nil {
		t.Fatal(err)
	}
	A := tensor.NewMatrix(3, st.T)
	st.GatherAssigned(2, 10, 3, A)
	for v := 0; v < 3; v++ {
		for tt := 0; tt < st.T; tt++ {
			if A.At(v, tt) != st.Norm[2].At(tt, 10+v) {
				t.Fatalf("gather mismatch at (%d,%d)", v, tt)
			}
		}
	}
}

// refBuffer lays out one stage of internal/ref's float64 reference for
// voxels [v0, v0+V) — the raw correlations R or the normalized Z — as the
// pipeline's interleaved (V·M)×N buffer, in float32.
func refBuffer(d *fmri.Dataset, v0, V int, stage func(ref.Stages) [][]float64) *tensor.Matrix {
	M, N := len(d.Epochs), d.Voxels()
	out := tensor.NewMatrix(V*M, N)
	for v := 0; v < V; v++ {
		for e, row := range stage(ref.Voxel(d, v0+v)) {
			for j, x := range row {
				out.Set(v*M+e, j, float32(x))
			}
		}
	}
	return out
}

func rawStage(s ref.Stages) [][]float64 { return s.R }

func TestComputeCorrelationsMatchesOracle(t *testing.T) {
	d := testDataset(t)
	st, err := BuildEpochStackContext(context.Background(), d, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := &Pipeline{Gemm: blas.TallSkinny{ColBlock: 16, Workers: 1}, Workers: 2}
	got := rawCorrelations(t, p, st, 5, 4)
	want := refBuffer(d, 5, 4, rawStage)
	if !got.EqualApprox(want, 1e-4) {
		t.Fatalf("correlation buffer mismatch, max diff %g", got.MaxAbsDiff(want))
	}
}

func TestSelfCorrelationIsOne(t *testing.T) {
	d := testDataset(t)
	st, _ := BuildEpochStackContext(context.Background(), d, 0)
	p := &Pipeline{}
	buf := rawCorrelations(t, p, st, 3, 2)
	M := st.M()
	for v := 0; v < 2; v++ {
		for e := 0; e < M; e++ {
			r := buf.At(v*M+e, 3+v)
			if math.Abs(float64(r)-1) > 1e-4 {
				t.Fatalf("self correlation voxel %d epoch %d = %v", 3+v, e, r)
			}
		}
	}
}

func TestMergedEqualsSeparated(t *testing.T) { eachKernelPath(t, testMergedEqualsSeparated) }

func testMergedEqualsSeparated(t *testing.T) {
	d := testDataset(t)
	st, err := BuildEpochStackContext(context.Background(), d, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, colBlock := range []int{0, 7, 16, 1024} {
		sep := &Pipeline{Workers: 2, Merged: false}
		mer := &Pipeline{Workers: 2, Merged: true, ColBlock: colBlock}
		a := run(t, sep, st, 4, 6)
		b := run(t, mer, st, 4, 6)
		if !a.EqualApprox(b, 1e-4) {
			t.Fatalf("colBlock=%d: merged and separated disagree, max diff %g",
				colBlock, a.MaxAbsDiff(b))
		}
	}
}

func TestRunNormalizationMoments(t *testing.T) {
	// After stage 2, each (voxel, subject, brain-voxel) population of E
	// values must have mean ~0 and std ~1 (or be all zero for degenerate
	// populations).
	d := testDataset(t)
	st, _ := BuildEpochStackContext(context.Background(), d, 0)
	p := &Pipeline{Workers: 1}
	V := 3
	buf := run(t, p, st, 0, V)
	M, E, N := st.M(), st.E, st.N
	for v := 0; v < V; v++ {
		for s := 0; s < st.Subjects; s++ {
			for j := 0; j < N; j += 17 { // sample columns
				var sum, sumSq float64
				for ei := 0; ei < E; ei++ {
					f := float64(buf.At(v*M+s*E+ei, j))
					sum += f
					sumSq += f * f
				}
				mean := sum / float64(E)
				std := math.Sqrt(math.Max(0, sumSq/float64(E)-mean*mean))
				allZero := sumSq == 0
				if !allZero && (math.Abs(mean) > 1e-4 || math.Abs(std-1) > 1e-3) {
					t.Fatalf("voxel %d subject %d col %d: mean %v std %v", v, s, j, mean, std)
				}
			}
		}
	}
}

func TestRunMatchesFullyNaiveReference(t *testing.T) {
	eachKernelPath(t, testRunMatchesFullyNaiveReference)
}

func testRunMatchesFullyNaiveReference(t *testing.T) {
	// End-to-end stage 1+2 against internal/ref.
	d := testDataset(t)
	st, _ := BuildEpochStackContext(context.Background(), d, 0)
	V, v0 := 2, 9
	p := &Pipeline{Workers: 1}
	got := run(t, p, st, v0, V)
	want := refBuffer(d, v0, V, func(s ref.Stages) [][]float64 { return s.Z })
	M, E, N := st.M(), st.E, st.N
	for v := 0; v < V; v++ {
		for s := 0; s < st.Subjects; s++ {
			for ei := 0; ei < E; ei++ {
				for j := 0; j < N; j++ {
					diff := math.Abs(float64(got.At(v*M+s*E+ei, j) - want.At(v*M+s*E+ei, j)))
					if diff > 1e-3 {
						t.Fatalf("reference mismatch at v=%d s=%d e=%d j=%d: diff %g", v, s, ei, j, diff)
					}
				}
			}
		}
	}
}

func TestPipelineGemmImplsAgree(t *testing.T) { eachKernelPath(t, testPipelineGemmImplsAgree) }

func testPipelineGemmImplsAgree(t *testing.T) {
	d := testDataset(t)
	st, _ := BuildEpochStackContext(context.Background(), d, 0)
	impls := []blas.Sgemm{blas.Naive{}, blas.TallSkinny{}}
	var ref *tensor.Matrix
	for i, g := range impls {
		p := &Pipeline{Gemm: g, Workers: 2}
		out := run(t, p, st, 0, 5)
		if i == 0 {
			ref = out
			continue
		}
		if !out.EqualApprox(ref, 1e-3) {
			t.Fatalf("impl %d disagrees with naive, max diff %g", i, out.MaxAbsDiff(ref))
		}
	}
}

func TestAppendEpochValidation(t *testing.T) {
	st, err := NewOnlineStack(8, 12)
	if err != nil {
		t.Fatal(err)
	}
	d := testDataset(t)
	win := d.EpochData(d.Epochs[0]) // 48 voxels, wrong width for an 8-voxel stack
	if err := st.AppendEpoch(win.Clone(), 0); err == nil {
		t.Fatal("wrong-shape window accepted")
	}
	if err := st.AppendEpoch(tensor.NewMatrix(8, 12), 2); err == nil {
		t.Fatal("non-binary label accepted")
	}
	if st.M() != 0 {
		t.Fatalf("rejected windows left %d epochs on the stack", st.M())
	}
	if _, err := NewOnlineStack(0, 12); err == nil {
		t.Fatal("zero voxels accepted")
	}
	if _, err := NewOnlineStack(8, 1); err == nil {
		t.Fatal("epoch length 1 accepted")
	}
}

// The float32 Fisher kernel end to end: merged and separated RunInto on a
// face-scene-shaped task (wide brain, 12 epochs a subject) and an
// attention-shaped one (narrow brain, 18 epochs a subject) stay within 1e-5
// of internal/ref's float64 reference. The repo benchmark's own gate on the same
// quantity (corr.max_abs_err) is 1e-3; the float64 kernel measured 1.2e-6.
func TestRunIntoMatchesFloat64Reference(t *testing.T) {
	eachKernelPath(t, testRunIntoMatchesFloat64Reference)
}

func testRunIntoMatchesFloat64Reference(t *testing.T) {
	const v0, V = 5, 12
	for _, spec := range []fmri.Spec{fmri.FaceSceneSpec(0.02), fmri.AttentionSpec(0.005)} {
		d, err := fmri.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		st, err := BuildEpochStackContext(context.Background(), d, 0)
		if err != nil {
			t.Fatal(err)
		}
		M, N := st.M(), st.N
		want := make([][][]float64, V)
		for v := range want {
			want[v] = ref.Voxel(d, v0+v).Z
		}
		for _, merged := range []bool{true, false} {
			buf := tensor.NewMatrix(V*M, N)
			p := &Pipeline{Workers: 1, Merged: merged}
			if err := p.RunInto(context.Background(), st, v0, V, buf); err != nil {
				t.Fatal(err)
			}
			var worst float64
			for v := 0; v < V; v++ {
				for e := 0; e < M; e++ {
					for j := 0; j < N; j++ {
						// A voxel against itself is the clamp constant in
						// every epoch: its z-score is 0/0.
						if j != v0+v {
							worst = max(worst, math.Abs(float64(buf.At(v*M+e, j))-want[v][e][j]))
						}
					}
				}
			}
			t.Logf("%s (%d voxels, %d epochs) merged=%v: max abs error %.2g", spec.Name, N, M, merged, worst)
			if worst > 1e-5 {
				t.Errorf("%s merged=%v: max abs error %g against the float64 reference, want <= 1e-5", spec.Name, merged, worst)
			}
		}
	}
}
