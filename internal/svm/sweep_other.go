//go:build !amd64

package svm

// blas.Lanes, and with it smo32.lanes, is always 0 off amd64: the Go loops
// are the only path, and the routines below exist so the dispatch and the
// tests compile.

var cgAVX2 = cgGo

func solveAVX2(*smo32, int, int, int) (_, _, _ int, _ bool)               { panic("svm: no AVX2") }
func sweepOnceAVX2(*smo32, int, int, float32, float32) (_, _ int, _ bool) { panic("svm: no AVX2") }
func selectAVX2(*smo32) (_, _ int, _ bool)                                { panic("svm: no AVX2") }
func classSumsAVX2([]float32, []int, int, []float64, []float64)           { panic("svm: no AVX2") }
func matvecAVX2([]float32, []int, []float32, []float32, int)              { panic("svm: no AVX2") }
func decideAVX2([]float64, []int, []float32, int, []int, float64, *[decideLanes]float64) {
	panic("svm: no AVX2")
}
