package ref

import (
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"fcma/internal/fmri"
)

// The reference must stay independent of what it judges: its non-test
// files import nothing under internal/ but fmri.
func TestImportsOnlyFmri(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, "fcma/") && path != "fcma/internal/fmri" {
				t.Errorf("%s imports %s", name, path)
			}
		}
	}
}

func TestPearson(t *testing.T) {
	x := []float32{1, 2, 3, 4}
	for _, c := range []struct {
		y    []float32
		want float64
	}{
		{[]float32{1, 2, 3, 4}, 1},
		{[]float32{4, 3, 2, 1}, -1},
		{[]float32{2, 2, 2, 2}, 0},
		{[]float32{1, 3, 2, 4}, 0.8},
	} {
		if got := pearson(x, c.y); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("pearson(%v, %v) = %v, want %v", x, c.y, got, c.want)
		}
	}
}

// Every subject's z-scored column has mean 0 and standard deviation 1 (or
// is all zeros, as the seed's own column is), and K is Z·Zᵀ: symmetric,
// with Σ_j Z[e][j]² on the diagonal.
func TestVoxelStages(t *testing.T) {
	d, err := fmri.Generate(fmri.Spec{Name: "ref", Voxels: 24, Subjects: 3, EpochsPerSubject: 4,
		EpochLen: 12, RestLen: 3, SignalVoxels: 4, Coupling: 0.8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const v = 2
	s := Voxel(d, v)
	M, N := len(d.Epochs), d.Data.Rows
	for j := 0; j < N; j++ {
		for subj := 0; subj < d.Subjects; subj++ {
			var sum, sumSq float64
			n := 0
			for e, ep := range d.Epochs {
				if ep.Subject == subj {
					sum += s.Z[e][j]
					sumSq += s.Z[e][j] * s.Z[e][j]
					n++
				}
			}
			mean, variance := sum/float64(n), sumSq/float64(n)-(sum/float64(n))*(sum/float64(n))
			if j == v {
				if sumSq != 0 {
					t.Fatalf("seed column of subject %d is not zero", subj)
				}
				continue
			}
			if math.Abs(mean) > 1e-12 || math.Abs(variance-1) > 1e-12 {
				t.Fatalf("column %d subject %d: mean %g variance %g", j, subj, mean, variance)
			}
		}
	}
	for a := 0; a < M; a++ {
		var diag float64
		for j := 0; j < N; j++ {
			diag += s.Z[a][j] * s.Z[a][j]
		}
		if s.K[a][a] != diag {
			t.Fatalf("K[%d][%d] = %g, want %g", a, a, s.K[a][a], diag)
		}
		for b := 0; b < a; b++ {
			if s.K[a][b] != s.K[b][a] {
				t.Fatalf("K is not symmetric at (%d, %d)", a, b)
			}
		}
	}
}

// On a line, the hard-margin classifier of {2, 1} against {−1, −2} is
// f(x) = x whatever α the singular kernel leaves free — with duplicated
// samples too — so the test samples' decision values are their positions.
func TestCrossValidateOnALine(t *testing.T) {
	for name, train := range map[string][]float64{
		"distinct":   {2, 1, -1, -2},
		"duplicated": {2, 2, 1, -1, -1, -2},
	} {
		xs := append(append([]float64(nil), train...), 0.5, -3, 0.25)
		labels := make([]int, len(xs))
		K := grid(len(xs), len(xs))
		for a, xa := range xs {
			if xa > 0 {
				labels[a] = 1
			}
			for b, xb := range xs {
				K[a][b] = xa * xb
			}
		}
		labels[len(xs)-1] = 0 // x = 0.25 is on the positive side, labelled negative
		trainIdx := make([]int, len(train))
		for i := range trainIdx {
			trainIdx[i] = i
		}
		test := []int{len(train), len(train) + 1, len(train) + 2}
		d, acc, err := CrossValidate(K, labels, [][]int{trainIdx}, [][]int{test})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for k, s := range test {
			if math.Abs(d[0][k]-xs[s]) > 1e-5 {
				t.Errorf("%s: decision at x = %g is %g", name, xs[s], d[0][k])
			}
		}
		if acc != 2.0/3 {
			t.Errorf("%s: accuracy %g, want 2/3", name, acc)
		}
	}
}

// A training set of one class is not trained: no decision values, and
// its test samples score half, exactly — beside a trained fold.
func TestCrossValidateOneClassFoldScoresChance(t *testing.T) {
	K := [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	labels := []int{1, 1, 0}
	d, acc, err := CrossValidate(K, labels, [][]int{{0, 1}, {0, 2}}, [][]int{{2}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	if d[0] != nil || len(d[1]) != 1 || acc != 0.25 {
		t.Fatalf("decisions %v, accuracy %g; want none for the one-class fold and 0.25", d, acc)
	}
}

// At the solution of a noisy, overlapping problem α is feasible and every
// sample meets its KKT condition within the gap: y·f ≥ 1 at α = 0, ≤ 1 at
// α = C, = 1 strictly inside the box.
func TestSolveMeetsKKT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, dims = 40, 3
	xs := grid(n, dims)
	labels := make([]int, n)
	for i := range xs {
		labels[i] = i % 2
		for k := range xs[i] {
			xs[i][k] = rng.NormFloat64()
		}
		xs[i][0] += float64(2*labels[i]-1) * 0.8
	}
	K := grid(n, n)
	for a := range K {
		for b := range K {
			for k := 0; k < dims; k++ {
				K[a][b] += xs[a][k] * xs[b][k]
			}
		}
	}
	idx := rng.Perm(n)[:32]
	alpha, rho, err := solve(K, labels, idx)
	if err != nil {
		t.Fatal(err)
	}
	var sumYA float64
	bounded, free := 0, 0
	for i, s := range idx {
		y := float64(2*labels[s] - 1)
		sumYA += y * alpha[i]
		f := -rho
		for j, r := range idx {
			f += alpha[j] * float64(2*labels[r]-1) * K[s][r]
		}
		const tol = 1e-5
		switch a := alpha[i]; {
		case a < 0 || a > boxC:
			t.Fatalf("α[%d] = %g outside [0, %g]", i, a, boxC)
		case a == 0:
			if y*f < 1-tol {
				t.Errorf("α[%d] = 0 with y·f = %g", i, y*f)
			}
		case a == boxC:
			bounded++
			if y*f > 1+tol {
				t.Errorf("α[%d] = C with y·f = %g", i, y*f)
			}
		default:
			free++
			if math.Abs(y*f-1) > tol {
				t.Errorf("α[%d] = %g free with y·f = %g", i, a, y*f)
			}
		}
	}
	if math.Abs(sumYA) > 1e-12 {
		t.Errorf("Σyα = %g", sumYA)
	}
	if bounded == 0 || free == 0 {
		t.Errorf("%d α at C and %d free: the problem does not reach both cases", bounded, free)
	}
}
