// Package ref is a deliberately naive float64 FCMA: the reference every
// kernel path, worker count, block size and solver start of the engine is
// judged against, within a stated tolerance.
//
// For one seed voxel it computes the textbook Pearson correlation of every
// epoch's samples against every voxel's, math.Atanh of it with |r| clamped
// at norm.ClampR, a z-score over each subject's epochs, and the kernel
// matrix K = Z·Zᵀ (Voxel). CrossValidate then trains a plain SMO from
// α = 0 to a tight KKT gap on each caller-given fold and returns decision
// values and accuracy. There is no blocking, no pooling and no float32
// arithmetic, and the package imports nothing under internal/ but fmri, so
// it shares no code with the pipeline it checks.
package ref

import (
	"math"

	"fcma/internal/fmri"
)

// clampR is norm.ClampR, restated so that no engine package is imported.
const clampR = 1 - 1e-6

// Stages is one seed voxel's reference pipeline over a dataset's M epochs
// and N voxels. R[e][j] is epoch e's Pearson correlation between the seed
// and voxel j; Z[e][j] is its clamped Fisher z, z-scored over the epochs of
// e's subject (a population whose values are all equal — the seed against
// itself — becomes zeros); K is the M×M kernel matrix Z·Zᵀ.
type Stages struct {
	R, Z, K [][]float64
}

// Voxel runs the reference stages for seed voxel v of d.
func Voxel(d *fmri.Dataset, v int) Stages {
	M, N := len(d.Epochs), d.Data.Rows
	s := Stages{R: grid(M, N), Z: grid(M, N), K: grid(M, M)}
	for e, ep := range d.Epochs {
		x := d.Data.Row(v)[ep.Start : ep.Start+ep.Len]
		for j := 0; j < N; j++ {
			r := pearson(x, d.Data.Row(j)[ep.Start:ep.Start+ep.Len])
			s.R[e][j] = r
			s.Z[e][j] = math.Atanh(max(-clampR, min(clampR, r)))
		}
	}
	bySubject := map[int][]int{}
	for e, ep := range d.Epochs {
		bySubject[ep.Subject] = append(bySubject[ep.Subject], e)
	}
	for _, epochs := range bySubject {
		for j := 0; j < N; j++ {
			zscore(s.Z, epochs, j)
		}
	}
	for a := range s.K {
		for b := range s.K[a] {
			var dot float64
			for j := 0; j < N; j++ {
				dot += s.Z[a][j] * s.Z[b][j]
			}
			s.K[a][b] = dot
		}
	}
	return s
}

func grid(rows, cols int) [][]float64 {
	g := make([][]float64, rows)
	for i := range g {
		g[i] = make([]float64, cols)
	}
	return g
}

// pearson is the two-pass sample correlation of x and y, 0 when either
// does not vary.
func pearson(x, y []float32) float64 {
	n := float64(len(x))
	var mx, my float64
	for i := range x {
		mx += float64(x[i])
		my += float64(y[i])
	}
	mx, my = mx/n, my/n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := float64(x[i])-mx, float64(y[i])-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// zscore replaces column j of the rows listed in epochs by its two-pass
// z-score over them (population standard deviation), or by zeros when the
// values are all equal.
func zscore(z [][]float64, epochs []int, j int) {
	first, equal := z[epochs[0]][j], true
	var mean float64
	for _, e := range epochs {
		mean += z[e][j]
		equal = equal && z[e][j] == first
	}
	mean /= float64(len(epochs))
	var ss float64
	for _, e := range epochs {
		ss += (z[e][j] - mean) * (z[e][j] - mean)
	}
	sd := math.Sqrt(ss / float64(len(epochs)))
	for _, e := range epochs {
		if equal {
			z[e][j] = 0
		} else {
			z[e][j] = (z[e][j] - mean) / sd
		}
	}
}
