package baseline

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"fcma/internal/blas"
	"fcma/internal/corr"
	"fcma/internal/fmri"
	"fcma/internal/tensor"
)

func randomMatrix(rng *rand.Rand, r, c int) *tensor.Matrix {
	m := tensor.NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.Float32()*2 - 1
	}
	return m
}

func blasImpls() map[string]BLAS {
	return map[string]BLAS{
		"default":     {},
		"1worker":     {Workers: 1},
		"smallblocks": {MC: 8, KC: 8, NC: 16},
	}
}

func TestGemmAgreesWithNaive(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1}, {1, 12, 100}, {120, 12, 347}, {7, 3, 33},
		{16, 16, 16}, {5, 200, 9}, {64, 1, 64}, {3, 12, 4096},
		{130, 12, 5000}, {2, 7, 8193},
	}
	rng := rand.New(rand.NewSource(2))
	for name, impl := range blasImpls() {
		for _, s := range shapes {
			m, k, n := s[0], s[1], s[2]
			A, B := randomMatrix(rng, m, k), randomMatrix(rng, k, n)
			want := tensor.NewMatrix(m, n)
			blas.Naive{}.Gemm(want, A, B)
			got := tensor.NewMatrix(m, n)
			got.Fill(123) // stale contents must be overwritten, not accumulated
			impl.Gemm(got, A, B)
			if !got.EqualApprox(want, 1e-3) {
				t.Errorf("%s: gemm mismatch at %dx%dx%d (max diff %g)",
					name, m, k, n, got.MaxAbsDiff(want))
			}
		}
	}
}

func TestGemmPropertyRandomShapes(t *testing.T) {
	impl := BLAS{MC: 16, KC: 16, NC: 32}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(200)
		A, B := randomMatrix(rng, m, k), randomMatrix(rng, k, n)
		want := tensor.NewMatrix(m, n)
		blas.Naive{}.Gemm(want, A, B)
		got := tensor.NewMatrix(m, n)
		impl.Gemm(got, A, B)
		return got.EqualApprox(want, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSyrkAgreesWithNaiveAndIsSymmetric(t *testing.T) {
	shapes := [][2]int{{1, 1}, {4, 100}, {17, 333}, {32, 96}, {33, 97}, {204, 500}, {3, 4096}}
	rng := rand.New(rand.NewSource(5))
	for _, s := range shapes {
		m, n := s[0], s[1]
		A := randomMatrix(rng, m, n)
		want := tensor.NewMatrix(m, m)
		blas.Naive{}.Syrk(want, A)
		got := tensor.NewMatrix(m, m)
		got.Fill(9) // stale contents must be overwritten
		BLAS{}.Syrk(got, A)
		if !got.EqualApprox(want, 2e-2) {
			t.Errorf("syrk mismatch at %dx%d (max diff %g)", m, n, got.MaxAbsDiff(want))
		}
		for i := 0; i < m; i++ {
			for j := 0; j < i; j++ {
				if got.At(i, j) != got.At(j, i) {
					t.Fatalf("syrk result not exactly symmetric at (%d,%d) of %dx%d", i, j, m, n)
				}
			}
		}
	}
}

// The correlation pipeline is agnostic to its gemm: through the packing
// kernel it produces the buffer it produces through the textbook loop.
func TestPipelineGemmAgreesWithNaive(t *testing.T) {
	st := testStack(t, 64, 3, 4)
	var out [2]*tensor.Matrix
	for i, g := range []blas.Sgemm{blas.Naive{}, BLAS{}} {
		p := &corr.Pipeline{Gemm: g, Workers: 2}
		buf, err := p.RunContext(context.Background(), st, 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = buf
	}
	if !out[1].EqualApprox(out[0], 1e-3) {
		t.Fatalf("packing gemm disagrees with naive, max diff %g", out[1].MaxAbsDiff(out[0]))
	}
}

func testStack(t testing.TB, voxels, subjects, epochsPerSubject int) *corr.EpochStack {
	t.Helper()
	d, err := fmri.Generate(fmri.Spec{
		Name:             "baseline-test",
		Voxels:           voxels,
		Subjects:         subjects,
		EpochsPerSubject: epochsPerSubject,
		EpochLen:         12,
		RestLen:          2,
		SignalVoxels:     voxels / 4,
		Coupling:         0.85,
		Seed:             99,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := corr.BuildEpochStackContext(context.Background(), d, 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}
