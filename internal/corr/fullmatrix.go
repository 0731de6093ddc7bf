package corr

import (
	"fmt"

	"fcma/internal/blas"
	"fcma/internal/tensor"
)

// FullMatrix computes the library's namesake object: the complete N×N
// Pearson correlation matrix of every brain voxel with every other voxel
// for one epoch, C = X'·X'ᵀ over the eq.2-normalized epoch data. For the
// paper's brains this matrix is huge (34,470² ≈ 1.2 billion entries, the
// "terabytes of correlation matrices" of §3.1 across epochs) — FCMA's
// pipeline never materializes it, but smaller studies and tests do. The
// product is the tall-skinny blocked syrk.
func FullMatrix(st *EpochStack, epoch int) (*tensor.Matrix, error) {
	if epoch < 0 || epoch >= st.M() {
		return nil, fmt.Errorf("corr: epoch %d of %d", epoch, st.M())
	}
	// The stack stores epochs transposed (T×N); the syrk wants N×T rows.
	nm := st.Norm[epoch]
	X := tensor.NewMatrix(st.N, st.T)
	for t := 0; t < st.T; t++ {
		row := nm.Row(t)
		for v, val := range row {
			X.Data[v*X.Stride+t] = val
		}
	}
	C := tensor.NewMatrix(st.N, st.N)
	blas.TallSkinny{}.Syrk(C, X)
	return C, nil
}
