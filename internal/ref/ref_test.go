package ref

import (
	"go/parser"
	"go/token"
	"math"
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
