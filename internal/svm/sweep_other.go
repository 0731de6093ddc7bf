//go:build !amd64

package svm

// useAVX2 is never set off amd64: the Go loop in solveFused is the only
// path, and the routines below exist so the dispatch and the tests
// compile.
var useAVX2 = false

func solveAVX2(s *smo32, i, j, budget int) (done, ni, nj int, ok bool) {
	panic("svm: AVX2 solve loop on a non-amd64 build")
}

func sweepOnceAVX2(s *smo32, i, j int, cyi, cyj float32) (ni, nj int, ok bool) {
	panic("svm: AVX2 sweep on a non-amd64 build")
}

func classSumsAVX2(kd []float32, rows []int, np int, rp, rm []float64) {
	panic("svm: AVX2 class sums on a non-amd64 build")
}
