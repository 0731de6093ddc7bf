//go:build !amd64

package svm

// useAVX2 is never set off amd64: the Go loop in sweep is the only path,
// and the routine below exists so the dispatch compiles.
var useAVX2 = false

func sweepAVX2(lanes *sweepLanes, grad, alpha, y *float64, ki, kj *float32, n int, cyi, cyj, c float64) {
	panic("svm: AVX2 sweep on a non-amd64 build")
}
