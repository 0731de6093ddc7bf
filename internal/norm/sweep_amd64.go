package norm

import "math"

// The assembly in sweep_amd64.s takes the sweep's leading columns — every
// multiple of eight below cols — where the kernel path (blas.Lanes) is a
// vector one, and runs the Fisher pass sixteen lanes at a time
// (fisherRowZMM) where it is 16. It multiplies, adds and divides
// separately (no FMA), in the order of the Go expressions in norm.go and
// scratch.go, takes each column's rows in the same ascending order, and
// compares with the ordered, quiet predicates Go's comparisons are, so
// every path leaves the same float32 bits everywhere (NaN stays NaN; its
// payload is not pinned). CI also holds that pin in a GOAMD64=v3 build,
// where the compiler could fuse a multiply-add of the reference loops; it
// does not.

// fisherVec holds the Fisher kernel's constants as bit patterns, each
// eight times over — one YMM register's worth — in the order sweep_amd64.s
// names them. Built from the const block in norm.go, so the constants keep
// one definition, and read by the assembly as memory operands (never
// through a general register; see sweep_amd64.s).
var fisherVec = func() (t [27][8]uint32) {
	f := math.Float32bits
	for i, c := range [len(t)]uint32{
		f(fa6), f(fa5), f(fa4), f(fa3), f(fa2), f(fa1), f(fa0), f(fisherSplit2),
		f(1), f(clampA), f(clampZ), f(0.5), f(ln2Lo), f(ln2Hi),
		f(fl6), f(fl5), f(fl4), f(fl3), f(fl2), f(fl1), f(fl0),
		signBit, oneBits - sqrtHalfBits, 127, 0x007fffff, sqrtHalfBits, 8,
	} {
		for lane := range t[i] {
			t[i][lane] = c
		}
	}
	return t
}()

// packLanes[m] lists, in its first eight bytes, the lanes set in the 8-bit
// mask m in ascending order, and holds in byte 8 how many there are: the
// permutation that packs a vector's filed lanes to its front (AVX2 has no
// compress instruction).
var packLanes = func() (t [256][16]uint8) {
	for m := range t {
		n := 0
		for lane := 0; lane < 8; lane++ {
			if m>>lane&1 == 1 {
				t[m][n] = uint8(lane)
				n++
			}
		}
		t[m][8] = uint8(n)
	}
	return t
}()

// fisherRowAVX2 and fisherRowZMM are fisherRow over row[0:n], n a
// positive multiple of 8, with tailR and tailJ (n elements each) as its
// list of filed coefficients.
//
//go:noescape
func fisherRowZMM(row *float32, n int, tailR *float32, tailJ *int32)

//go:noescape
func fisherRowAVX2(row *float32, n int, tailR *float32, tailJ *int32)

// zscorePanelsAVX2 is the sweep's moments, column statistics and scaling
// for columns [0, n), n a positive multiple of 8, of a block of rows >= 1
// rows srcStride elements apart at src, written to rows dstStride apart
// at dst (which may be src).
//
//go:noescape
func zscorePanelsAVX2(dst *float32, dstStride int, src *float32, srcStride int, rows, n int)
