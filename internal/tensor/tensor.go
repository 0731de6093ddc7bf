// Package tensor provides dense row-major single-precision matrices,
// together with the packing, transposition and view utilities the FCMA
// kernels are built on. (The paper stores every floating point value in
// single precision; only solver state and statistics are float64.)
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float32 values.
//
// The zero value is an empty matrix. Data holds Rows*Stride values; row i
// begins at Data[i*Stride]. Stride >= Cols allows views into wider parent
// matrices without copying.
type Matrix struct {
	Rows, Cols int
	Stride     int
	Data       []float32
}

// NewMatrix allocates a zeroed r×c matrix with a contiguous backing slice.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Stride: c, Data: make([]float32, r*c)}
}

// FromSlice wraps data as an r×c matrix. The slice is used directly, not
// copied; it must hold at least r*c values.
func FromSlice(r, c int, data []float32) *Matrix {
	if len(data) < r*c {
		panic(fmt.Sprintf("tensor: slice of %d values cannot back %dx%d matrix", len(data), r, c))
	}
	return &Matrix{Rows: r, Cols: c, Stride: c, Data: data}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float32 {
	m.boundsCheck(i, j)
	return m.Data[i*m.Stride+j]
}

// Set stores v at row i, column j.
func (m *Matrix) Set(i, j int, v float32) {
	m.boundsCheck(i, j)
	m.Data[i*m.Stride+j] = v
}

func (m *Matrix) boundsCheck(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("tensor: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Row returns row i as a slice sharing the matrix backing store.
func (m *Matrix) Row(i int) []float32 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("tensor: row %d out of range %d", i, m.Rows))
	}
	return m.Data[i*m.Stride : i*m.Stride+m.Cols]
}

// View returns an r×c submatrix starting at (i, j) that shares backing
// storage with m. Mutating the view mutates m.
func (m *Matrix) View(i, j, r, c int) *Matrix {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > m.Rows || j+c > m.Cols {
		panic(fmt.Sprintf("tensor: view (%d,%d)+%dx%d out of range %dx%d", i, j, r, c, m.Rows, m.Cols))
	}
	return &Matrix{
		Rows:   r,
		Cols:   c,
		Stride: m.Stride,
		Data:   m.Data[i*m.Stride+j:],
	}
}

// Reuse reshapes m in place into a compact r×c matrix (Stride == Cols),
// reusing the backing slice when its capacity suffices and reallocating
// otherwise. Element contents are unspecified after the call — callers
// must fully overwrite (or Zero) the matrix before reading it. It is the
// building block of the kernel scratch pools: a pooled matrix Reuse()d to
// the current work item's shape costs nothing once the pool is warm.
func (m *Matrix) Reuse(r, c int) {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", r, c))
	}
	need := r * c
	if cap(m.Data) < need {
		m.Data = make([]float32, need)
	}
	m.Data = m.Data[:need]
	m.Rows, m.Cols, m.Stride = r, c, c
}

// Clone returns a deep copy of m with a compact (Stride == Cols) layout.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i))
	}
	return out
}

// CopyFrom copies src into m. Dimensions must match exactly.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: copy %dx%d into %dx%d", src.Rows, src.Cols, m.Rows, m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Row(i), src.Row(i))
	}
}

// Fill sets every element of m to v.
func (m *Matrix) Fill(v float32) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = v
		}
	}
}

// Zero sets every element of m to zero.
func (m *Matrix) Zero() { m.Fill(0) }

// Transpose returns a newly allocated Cols×Rows transpose of m.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*out.Stride+i] = v
		}
	}
	return out
}

// Equal reports whether m and n have identical shape and elements.
func (m *Matrix) Equal(n *Matrix) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		a, b := m.Row(i), n.Row(i)
		for j := range a {
			if a[j] != b[j] {
				return false
			}
		}
	}
	return true
}

// EqualApprox reports whether m and n have identical shape and all elements
// within tol of each other (absolute, with a relative fallback for large
// magnitudes). NaN elements compare equal to NaN.
func (m *Matrix) EqualApprox(n *Matrix, tol float64) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		a, b := m.Row(i), n.Row(i)
		for j := range a {
			if !approxEqual(float64(a[j]), float64(b[j]), tol) {
				return false
			}
		}
	}
	return true
}

func approxEqual(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

// MaxAbsDiff returns the largest absolute element-wise difference between
// m and n, which must share a shape.
func (m *Matrix) MaxAbsDiff(n *Matrix) float64 {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		panic(fmt.Sprintf("tensor: diff %dx%d vs %dx%d", m.Rows, m.Cols, n.Rows, n.Cols))
	}
	var max float64
	for i := 0; i < m.Rows; i++ {
		a, b := m.Row(i), n.Row(i)
		for j := range a {
			d := math.Abs(float64(a[j]) - float64(b[j]))
			if d > max {
				max = d
			}
		}
	}
	return max
}

// String renders small matrices for debugging; large matrices render as a
// shape summary.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}
