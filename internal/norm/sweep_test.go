package norm

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	_ "unsafe" // go:linkname

	"fcma/internal/blas"
)

// The vector sweeps are pinned to the Go sweep bit for bit: every test
// here runs one block down each path — Go, AVX2, and AVX2 with the
// sixteen-lane Fisher pass ("avx512") — and demands math.Float32bits
// equality (NaN against NaN, the payload aside) on every element, the
// padding between strided rows included. That pin is what lets every
// equality check above this package — merged == separated, cluster ==
// local, served == direct — vouch for stage 2's assembly too.

// kernelLanes is internal/blas's kernel path, the one switch every
// package's assembly dispatches on, reached by linkname so the pins can
// run each path without blas exporting a setter.
//
//go:linkname kernelLanes fcma/internal/blas.lanes
var kernelLanes int

// hostLanes is the probe's verdict, read before any test rewrites it.
var hostLanes = blas.Lanes()

// sweepPaths are the kernel paths a test runs: Go, AVX2, and AVX2 with
// the sixteen-lane Fisher pass.
var sweepPaths = []struct {
	name  string
	lanes int
}{{"go", 0}, {"avx2", 8}, {"avx512", 16}}

// withSweepPath runs f with the kernel path forced.
func withSweepPath(lanes int, f func()) {
	old := kernelLanes
	defer func() { kernelLanes = old }()
	kernelLanes = lanes
	f()
}

// eachSweepPath runs f as a subtest on every sweep path; a vector path
// skips where the probe says the host cannot run it.
func eachSweepPath(t *testing.T, f func(t *testing.T)) {
	for _, p := range sweepPaths {
		t.Run(p.name, func(t *testing.T) {
			if p.lanes > hostLanes {
				t.Skipf("host runs %d-lane kernels at most", hostLanes)
			}
			withSweepPath(p.lanes, func() { f(t) })
		})
	}
}

func sameFloat(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// fisherSeams is every input at which FisherZ changes regime, and the
// values no correlation should take but a buffer can hold.
func fisherSeams() []float32 {
	inf := float32(math.Inf(1))
	return []float32{0, float32(math.Copysign(0, -1)), 1e-30, -0.3, 0.6249999, 0.625, -0.625, 0.9,
		math.Nextafter32(clampA, 0), clampA, 1, -1, 1.5, inf, -inf, float32(math.NaN())}
}

// requireSweepPathsAgree runs the sweep over a rows×cols block (rows
// stride apart in block) on the Go path and on each vector path the host
// runs, in place and into a second buffer with a stride of its own, and
// demands the same bits everywhere.
func requireSweepPathsAgree(t *testing.T, block []float32, rows, cols, stride int, fisher bool) {
	t.Helper()
	for _, p := range sweepPaths[1:] {
		if p.lanes <= hostLanes {
			requireSweepPathAgrees(t, p.name, p.lanes, block, rows, cols, stride, fisher)
		}
	}
}

// requireSweepPathAgrees is requireSweepPathsAgree for one vector path.
func requireSweepPathAgrees(t *testing.T, name string, lanes int, block []float32, rows, cols, stride int, fisher bool) {
	t.Helper()
	dstStride := cols + 3
	var inPlace, src, dst [2][]float32
	for p := range inPlace {
		withSweepPath(lanes*p, func() {
			var s Scratch
			inPlace[p] = append([]float32(nil), block...)
			s.sweep(inPlace[p], stride, inPlace[p], rows, cols, stride, fisher)
			src[p] = append([]float32(nil), block...)
			dst[p] = make([]float32, (rows-1)*dstStride+cols)
			for i := range dst[p] {
				dst[p][i] = -7 // the padding must come back untouched
			}
			s.sweep(dst[p], dstStride, src[p], rows, cols, stride, fisher)
		})
	}
	for _, c := range []struct {
		what      string
		got, want []float32
	}{
		{"in place", inPlace[1], inPlace[0]},
		{"source after write-through", src[1], src[0]},
		{"write-through", dst[1], dst[0]},
	} {
		for i := range c.want {
			if !sameFloat(c.got[i], c.want[i]) {
				t.Fatalf("%dx%d stride %d fisher=%v, %s: element %d is %v (%#08x) on the %s path, %v (%#08x) on the Go path",
					rows, cols, stride, fisher, c.what, i, c.got[i], math.Float32bits(c.got[i]), name, c.want[i], math.Float32bits(c.want[i]))
			}
		}
	}
	// The write-through leaves in dst what the in-place sweep leaves in
	// the block.
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if got, want := dst[0][i*dstStride+j], inPlace[0][i*stride+j]; !sameFloat(got, want) {
				t.Fatalf("%dx%d fisher=%v: write-through (%d,%d) = %v, in place %v", rows, cols, fisher, i, j, got, want)
			}
		}
	}
}

// sweepInputs fills n coefficients from one of four populations: the
// benchmark probe's uniform[−0.9, 0.9], the N(0, 0.3) of a noise brain,
// raw bit patterns (denormals, NaN payloads, huge values), and the seams.
func sweepInputs(rng *rand.Rand, kind, n int) []float32 {
	seams := fisherSeams()
	xs := make([]float32, n)
	for i := range xs {
		switch kind % 4 {
		case 0:
			xs[i] = float32(rng.Float64()*1.8 - 0.9)
		case 1:
			xs[i] = float32(rng.NormFloat64() * 0.3)
		case 2:
			xs[i] = math.Float32frombits(rng.Uint32())
		default:
			xs[i] = seams[rng.Intn(len(seams))]
		}
	}
	return xs
}

// Every shape from one row of one column to eight vector groups and the
// widest remainder, compact and strided, with and without the transform;
// then the benchmark's two shapes, the wide one five columns past a vector
// group, where a row files hundreds of coefficients.
func TestVectorSweepMatchesGo(t *testing.T) {
	if hostLanes == 0 {
		t.Skip("host has no AVX2 + FMA: the Go sweep is the only path")
	}
	rng := rand.New(rand.NewSource(11))
	kind := 0
	for rows := 1; rows <= 16; rows++ {
		for cols := 1; cols <= 70; cols++ {
			kind++
			stride := cols + (rows+cols)%3*5
			block := sweepInputs(rng, kind, (rows-1)*stride+cols)
			requireSweepPathsAgree(t, block, rows, cols, stride, kind%5 != 0)
		}
	}
	for _, shape := range [][2]int{{12, 640}, {16, 4101}} {
		for kind := 0; kind < 4; kind++ {
			rows, cols := shape[0], shape[1]
			requireSweepPathsAgree(t, sweepInputs(rng, kind, rows*cols), rows, cols, cols, true)
		}
	}
}

// Constant columns — zero variance, so scale and shift reset to 0 — in
// vector groups, in the float64 statistics' four-lane groups and in the
// remainder, next to columns that do vary.
func TestVectorSweepZeroVarianceColumns(t *testing.T) {
	if hostLanes == 0 {
		t.Skip("host has no AVX2 + FMA: the Go sweep is the only path")
	}
	rng := rand.New(rand.NewSource(12))
	const rows, cols = 6, 23
	for _, fisher := range []bool{true, false} {
		for trial := 0; trial < 20; trial++ {
			block := sweepInputs(rng, trial%2, rows*cols)
			for j := 0; j < cols; j++ {
				if rng.Intn(3) == 0 {
					for i := 0; i < rows; i++ {
						block[i*cols+j] = block[j]
					}
				}
			}
			requireSweepPathsAgree(t, block, rows, cols, cols, fisher)
		}
	}
}

// Each seam value in each lane of a vector group, of the group after it,
// and of the remainder, among ordinary coefficients.
func TestVectorSweepSeamsInEveryLane(t *testing.T) {
	if hostLanes == 0 {
		t.Skip("host has no AVX2 + FMA: the Go sweep is the only path")
	}
	rng := rand.New(rand.NewSource(13))
	const rows, cols = 3, 21
	for _, v := range fisherSeams() {
		for lane := 0; lane < cols; lane++ {
			block := sweepInputs(rng, 1, rows*cols)
			block[rows/2*cols+lane] = v
			requireSweepPathsAgree(t, block, rows, cols, cols, true)
		}
	}
	// And all of them at once, rotated through the lanes.
	seams := fisherSeams()
	for shift := range seams {
		block := make([]float32, rows*cols)
		for i := range block {
			block[i] = seams[(i+shift)%len(seams)]
		}
		requireSweepPathsAgree(t, block, rows, cols, cols, true)
	}
}

// One sweep from raw bit patterns. The first four bytes pick the shape
// (rows 1…16, cols 1…70, row padding 0…3, transform on or off); the rest
// fills the block, cyclically if it is short.
func FuzzFisherSweepMatchesGo(f *testing.F) {
	rng := rand.New(rand.NewSource(14))
	for kind, shape := range [][4]byte{{11, 63, 0, 1}, {11, 63, 2, 1}, {3, 12, 1, 1}, {15, 69, 3, 1}, {5, 20, 0, 0}, {0, 7, 0, 1}} {
		rows, cols := 1+int(shape[0]), 1+int(shape[1])
		b := shape[:]
		for _, x := range sweepInputs(rng, kind, rows*(cols+int(shape[2]))) {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if hostLanes == 0 {
			t.Skip("host has no AVX2 + FMA: the Go sweep is the only path")
		}
		if len(data) < 8 {
			t.Skip("not enough data for a shape and one coefficient")
		}
		rows, cols := 1+int(data[0]%16), 1+int(data[1]%70)
		stride := cols + int(data[2]%4)
		fisher := data[3]&1 == 1
		words := (len(data) - 4) / 4
		block := make([]float32, (rows-1)*stride+cols)
		for i := range block {
			block[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4+i%words*4:]))
		}
		requireSweepPathsAgree(t, block, rows, cols, stride, fisher)
	})
}
