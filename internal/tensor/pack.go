package tensor

import "fmt"

// PackTransposed copies the r×c block of src at (i0, j0) into dst in
// transposed (column-major-of-block) order, so dst[j*r+i] = src[i0+i, j0+j].
// This models the A^T_local micro-panel transpose from the paper (§4.4):
// transposing the block makes the innermost product loop unit-stride for
// the vector unit.
func PackTransposed(dst []float32, src *Matrix, i0, j0, r, c int) []float32 {
	if i0 < 0 || j0 < 0 || r < 0 || c < 0 || i0+r > src.Rows || j0+c > src.Cols {
		panic(fmt.Sprintf("tensor: pack block (%d,%d)+%dx%d out of range %dx%d", i0, j0, r, c, src.Rows, src.Cols))
	}
	need := r * c
	if cap(dst) < need {
		dst = make([]float32, need)
	}
	dst = dst[:need]
	for i := 0; i < r; i++ {
		row := src.Data[(i0+i)*src.Stride+j0:]
		for j := 0; j < c; j++ {
			dst[j*r+i] = row[j]
		}
	}
	return dst
}
