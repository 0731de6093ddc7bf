package svm

import "fcma/internal/blas"

// useAVX2 routes the vector body of the fused first-order sweep through
// the assembly in sweep_amd64.s. It is set once, at init, from the one
// CPUID probe in the tree (internal/blas); only tests write it
// afterwards, to hold the two paths against each other.
//
// The assembly multiplies and adds separately (no FMA), in the order of
// the Go expressions in sweep, and resolves ties as the scalar scan does,
// so both paths leave the same bits in every g[t] and select the same
// pair. That pin is stated for the default GOAMD64=v1: at v3 the Go
// compiler may itself fuse x*y+z in the reference loop.
var useAVX2 = blas.HasAVX2()

// sweepAVX2 runs sweep's loop body over elements [0, n) — n a positive
// multiple of 4 — four float64 lanes at a time, and leaves each lane's
// running scan state in lanes.
//
//go:noescape
func sweepAVX2(lanes *sweepLanes, grad, alpha, y *float64, ki, kj *float32, n int, cyi, cyj, c float64)
