// Package norm implements FCMA's second pipeline stage: the Fisher
// z-transformation of Pearson correlation coefficients (paper eq. 4) and
// within-subject z-scoring (eq. 5).
//
// The population for z-scoring is the set of E Fisher-transformed values a
// single correlation pair (assigned voxel, brain voxel) takes over one
// subject's E epochs — the "vertical black line" of Fig. 4. Z-scoring that
// population puts different subjects' coefficients on the same scale before
// cross-subject classification.
//
// The stage's arithmetic has one definition, in Go: the float32 atanh
// kernel in this file and the one sweep in scratch.go that applies it,
// accumulates the column moments and scales. On a vector kernel path
// (blas.Lanes) the sweep's leading columns run the same operations in the
// same order, eight lanes at a time (the Fisher pass sixteen on the ZMM
// path), in sweep_amd64.s; the Go code is the reference those kernels are
// pinned to bit for bit, their remainder handler, and the only path
// elsewhere.
package norm

import "math"

// ClampR bounds a correlation coefficient away from ±1 so the Fisher
// transform stays finite. Self-correlations are exactly 1 (a voxel with
// itself) and would otherwise map to +Inf.
const ClampR = 1 - 1e-6

const (
	// clampA is the smallest clamped magnitude, float32(ClampR); every
	// |r| >= clampA maps to clampZ = float32(atanh(ClampR)).
	clampA float32 = ClampR
	clampZ float32 = 7.2543287
	// fisherSplit2 is the square of the branch point |r| = 0.625: below it
	// atanh is an odd polynomial, from it on ½·log((1+a)/(1−a)). A higher
	// split sends fewer coefficients to the costlier log branch but needs
	// one more polynomial term per 1/16; 0.625 is where the two meet for
	// correlations of noise (|r| mostly under 0.6).
	fisherSplit2 float32 = 0.625 * 0.625

	// atanh(r) = r + r·s·P(s), s = r², on |r| < 0.625: the degree-6 minimax
	// fit (Remez, relative error of atanh as the weight) of
	// (atanh(√s)/√s − 1)/s over s in [0, 0.625²]; max relative error 2^-27.2.
	fa0 float32 = 0.3333346
	fa1 float32 = 0.1999207
	fa2 float32 = 0.14452876
	fa3 float32 = 0.09465351
	fa4 float32 = 0.17531751
	fa5 float32 = -0.14880279
	fa6 float32 = 0.3394525

	// log(1+f) = f − f²/2 + f³·Q(f) on f in [√½−1, √2−1]: the degree-6
	// minimax fit of the remainder, max absolute error 2^-27.1.
	fl0 float32 = 0.33334166
	fl1 float32 = -0.250017
	fl2 float32 = 0.19954875
	fl3 float32 = -0.16564426
	fl4 float32 = 0.14977992
	fl5 float32 = -0.14379007
	fl6 float32 = 0.08672188

	// ln 2 split so k·ln2Hi is exact for every exponent k the clamp allows.
	ln2Hi float32 = 0.693359375
	ln2Lo float32 = -2.12194440e-4

	sqrtHalfBits = 0x3f3504f3 // float32 bits of √½
	oneBits      = 0x3f800000
	signBit      = 1 << 31
)

// FisherZ applies the Fisher transformation z = ½·ln((1+r)/(1−r)) = atanh(r)
// with |r| clamped to ClampR, in float32 throughout: every |r| >=
// float32(ClampR) (±Inf included) maps to ±float32(atanh(ClampR)), NaN maps
// to NaN, and everything else is within 1 ulp of the float64 atanh rounded
// to float32 (the tests allow 4), exactly odd, and non-decreasing.
func FisherZ(r float32) float32 {
	s := r * r
	if s >= fisherSplit2 {
		return fisherTail(r)
	}
	// NaN lands here (the comparison is false) and propagates.
	return fisherSmall(r, s)
}

// fisherSmall is atanh(r) for s = r² < fisherSplit2. It is odd in r as
// written, so the sign needs no handling, and small enough to inline into
// the sweep's row loop.
func fisherSmall(r, s float32) float32 {
	return r + r*s*((((((fa6*s+fa5)*s+fa4)*s+fa3)*s+fa2)*s+fa1)*s+fa0)
}

// fisherTail is atanh(r) for |r| >= 0.625: the clamp, then ½·log(x) of
// x = (1+a)/(1−a) with a = |r| (1−a is exact there, so x carries two
// roundings), where log splits x = 2^k·m with m in [√½, √2) and evaluates
// k·ln2 + log(1+f), f = m−1, by the Estrin form of the fit above. One
// division, no float64. The sign is copied back at the end, which makes
// the function exactly odd.
func fisherTail(r float32) float32 {
	bits := math.Float32bits(r)
	sign := bits & signBit
	a := math.Float32frombits(bits ^ sign)
	if a >= clampA {
		return math.Float32frombits(math.Float32bits(clampZ) | sign)
	}
	x := (1 + a) / (1 - a)
	ix := math.Float32bits(x) + (oneBits - sqrtHalfBits)
	k := float32(int32(ix>>23) - 127)
	f := math.Float32frombits(ix&0x007fffff+sqrtHalfBits) - 1
	f2 := f * f
	q := (fl0 + fl1*f) + f2*((fl2+fl3*f)+f2*((fl4+fl5*f)+f2*fl6))
	lg := k*ln2Hi + (f + (k*ln2Lo - 0.5*f2 + f2*f*q))
	return math.Float32frombits(math.Float32bits(0.5*lg) | sign)
}
