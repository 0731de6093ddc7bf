//go:build !amd64

package svm

// useAVX2 is never set off amd64: the Go loops are the only path, and the
// routines below exist so the dispatch and the tests compile.
var useAVX2, useZMM = false, false

func solveAVX2(*smo32, int, int, int) (_, _, _ int, _ bool)               { panic("svm: no AVX2") }
func sweepOnceAVX2(*smo32, int, int, float32, float32) (_, _ int, _ bool) { panic("svm: no AVX2") }
func classSumsAVX2([]float32, []int, int, []float64, []float64)           { panic("svm: no AVX2") }
func matvecAVX2([]float32, []int, []float32, []float32)                   { panic("svm: no AVX2") }
func directionAVX2(*smo32, float64, float64) (_, _ float64)               { panic("svm: no AVX2") }
func curvatureAVX2(*smo32) (_, _ float64)                                 { panic("svm: no AVX2") }
func advanceAVX2(*smo32, float64, float64) (_, _ float64)                 { panic("svm: no AVX2") }
