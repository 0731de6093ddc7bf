package blas

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fcma/internal/tensor"
)

// The FMA kernels are pinned to the Go twins bit for bit: every test here
// computes a product once per kernel path — Go, YMM ("avx2": AVX2 + FMA),
// ZMM ("avx512": AVX-512F) — and demands math.Float32bits equality (NaN
// against NaN, the payload aside). That pin is what lets every equality
// check above this package — cluster == local, served == direct, repeat
// identity — vouch for the assembly; internal/ref judges all of them
// against float64 arithmetic.

// hostLanes is the probe's verdict, read before any test rewrites lanes.
var hostLanes = lanes

// kernelPaths names each dispatch setting a test runs: the value of lanes.
var kernelPaths = []struct {
	name  string
	lanes int
}{{"go", 0}, {"avx2", 8}, {"avx512", 16}}

// withKernelPath runs f with the kernel path forced.
func withKernelPath(l int, f func()) {
	old := lanes
	lanes = l
	defer func() { lanes = old }()
	f()
}

// eachKernelPath runs f as a subtest on every kernel path; a vector path
// skips where the probe says the host cannot run it.
func eachKernelPath(t *testing.T, f func(t *testing.T)) {
	for _, p := range kernelPaths {
		t.Run(p.name, func(t *testing.T) {
			if p.lanes > hostLanes {
				t.Skipf("host runs %d-lane kernels at most", hostLanes)
			}
			withKernelPath(p.lanes, func() { f(t) })
		})
	}
}

func needAVX2(t testing.TB) {
	if hostLanes == 0 {
		t.Skip("host has no AVX2 + FMA: the Go kernels are the only path")
	}
}

// specials are the values where a reordered or fused kernel shows first.
var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -3e-39,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.MaxFloat32, -math.MaxFloat32, 1e-20, 1e20,
}

// sprinkle overwrites roughly one element in eight with a special value.
func sprinkle(rng *rand.Rand, m *tensor.Matrix) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			if rng.Intn(8) == 0 {
				row[j] = specials[rng.Intn(len(specials))]
			}
		}
	}
}

const padSentinel = 12345.5

// viewMatrix returns an r×c matrix laid out with Stride = c+pad inside a
// larger buffer filled with padSentinel, filled from rng.
func viewMatrix(rng *rand.Rand, r, c, pad int) *tensor.Matrix {
	buf := make([]float32, r*(c+pad)+pad)
	for i := range buf {
		buf[i] = padSentinel
	}
	m := &tensor.Matrix{Rows: r, Cols: c, Stride: c + pad, Data: buf[pad:]}
	for i := 0; i < r; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = rng.Float32()*2 - 1
		}
	}
	return m
}

// requirePadIntact fails if a kernel wrote outside the view's columns.
func requirePadIntact(t *testing.T, what string, m *tensor.Matrix) {
	t.Helper()
	if m.Stride == m.Cols {
		return
	}
	for i := 0; i < m.Rows; i++ {
		end := min((i+1)*m.Stride, len(m.Data))
		for _, v := range m.Data[i*m.Stride+m.Cols : end] {
			if v != padSentinel {
				t.Fatalf("%s: kernel wrote past the view in row %d", what, i)
			}
		}
	}
}

func sameFloat(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

func requireBitIdentical(t *testing.T, what string, got, want *tensor.Matrix) {
	t.Helper()
	for i := 0; i < want.Rows; i++ {
		g, w := got.Row(i), want.Row(i)
		for j := range w {
			if !sameFloat(g[j], w[j]) {
				t.Fatalf("%s: (%d,%d) got %g (%#08x), want %g (%#08x)", what, i, j,
					g[j], math.Float32bits(g[j]), w[j], math.Float32bits(w[j]))
			}
		}
	}
}

// blankLike returns a matrix shaped and strided like m, its view filled
// with a stale value the kernel must overwrite.
func blankLike(m *tensor.Matrix) *tensor.Matrix {
	c := &tensor.Matrix{Rows: m.Rows, Cols: m.Cols, Stride: m.Stride, Data: make([]float32, len(m.Data))}
	for i := range c.Data {
		c.Data[i] = padSentinel
	}
	c.Fill(9)
	return c
}

// onEveryPath runs compute into a fresh copy of proto on the Go path and
// on each vector path the host runs, and demands identical bits.
func onEveryPath(t *testing.T, what string, proto *tensor.Matrix, compute func(C *tensor.Matrix)) {
	t.Helper()
	want := blankLike(proto)
	withKernelPath(0, func() { compute(want) })
	for _, p := range kernelPaths[1:] {
		if p.lanes > hostLanes {
			continue
		}
		got := blankLike(proto)
		withKernelPath(p.lanes, func() { compute(got) })
		requireBitIdentical(t, p.name+" "+what, got, want)
		requirePadIntact(t, p.name+" "+what, got)
	}
}

var pinSyrkRows = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 30, 36, 48, 54, 96, 216, 540}

func TestSyrkAVX2BitIdenticalToGo(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(14))
	for _, m := range pinSyrkRows {
		for _, block := range []int{1, 95, 96, 97} {
			for _, pad := range []int{0, 3} {
				n := 200
				if m > 100 {
					n = 97 // keeps the scalar reference quick at the tall shapes
				}
				A := viewMatrix(rng, m, n, pad)
				if pad != 0 {
					sprinkle(rng, A)
				}
				proto := viewMatrix(rng, m, m, pad)
				what := fmt.Sprintf("m=%d n=%d block=%d pad=%d", m, n, block, pad)
				onEveryPath(t, "syrk "+what, proto, func(C *tensor.Matrix) {
					TallSkinny{SyrkBlock: block}.Syrk(C, A)
				})
				onEveryPath(t, "batch "+what+" workers=1", proto, func(C *tensor.Matrix) {
					err := BatchSyrkContext(context.Background(), []*tensor.Matrix{C}, []*tensor.Matrix{A}, block, 1)
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// A batch mixes matrices of different heights and lengths in one worker
// pool, so one pooled scratch serves tiles of several shapes back to back;
// 60, 150, 250 and 800 columns in blocks of 96 are 1, 2, 3 and 9 blocks.
// A matrix belongs to one worker and its blocks run in order, so at any
// worker count the batch is the serial Syrk bit for bit, on each kernel
// path, and the two paths agree with each other.
func TestBatchSyrkAVX2BitIdenticalMixedBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cols := []int{60, 150, 250, 800}
	var As []*tensor.Matrix
	for i, m := range []int{12, 7, 48, 9, 30, 8, 216, 13, 36, 54} {
		A := viewMatrix(rng, m, cols[i%len(cols)], m%4)
		sprinkle(rng, A)
		As = append(As, A)
	}
	blank := func() []*tensor.Matrix {
		Cs := make([]*tensor.Matrix, len(As))
		for i, A := range As {
			Cs[i] = tensor.NewMatrix(A.Rows, A.Rows)
		}
		return Cs
	}
	var perPath [][]*tensor.Matrix
	eachKernelPath(t, func(t *testing.T) {
		want := blank()
		for i, A := range As {
			TallSkinny{Workers: 1}.Syrk(want[i], A)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			got := blank()
			if err := BatchSyrkContext(context.Background(), got, As, 96, workers); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				requireBitIdentical(t, fmt.Sprintf("batch item %d workers=%d vs serial Syrk", i, workers), got[i], want[i])
			}
		}
		perPath = append(perPath, want)
	})
	for p := 1; p < len(perPath); p++ {
		for i := range As {
			requireBitIdentical(t, fmt.Sprintf("batch item %d %s vs go", i, kernelPaths[p].name), perPath[p][i], perPath[0][i])
		}
	}
}

func TestGemmAVX2BitIdenticalToGo(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(16))
	for _, m := range []int{1, 2, 3, 5, 8, 12} {
		for _, k := range []int{0, 1, 2, 3, 12, 13} {
			for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 126, 172, 4099} {
				for _, pad := range []int{0, 5} {
					A, B := viewMatrix(rng, m, k, pad), viewMatrix(rng, k, n, pad)
					if pad != 0 {
						sprinkle(rng, A)
						sprinkle(rng, B)
					}
					proto := viewMatrix(rng, m, n, pad)
					// ColBlock 0 cuts n=4099 into a 4096 strip and a 3 strip;
					// 17 makes every strip a vector pair plus a scalar tail.
					for _, cb := range []int{0, 17} {
						for _, workers := range []int{1, 3} {
							what := fmt.Sprintf("gemm %dx%dx%d pad=%d colblock=%d workers=%d", m, k, n, pad, cb, workers)
							onEveryPath(t, what, proto, func(C *tensor.Matrix) {
								TallSkinny{Workers: workers, ColBlock: cb}.Gemm(C, A, B)
							})
						}
					}
				}
			}
		}
	}
}

// The tile driver must cover each lower-triangle element exactly once
// whatever m is: integer-valued inputs make every sum exact, so any
// skipped or doubled block shows as a wrong integer, on both paths.
func TestSyrkBlockKernelCoversLowerTriangleOnce(t *testing.T) {
	eachKernelPath(t, func(t *testing.T) {
		for m := 1; m <= 41; m++ {
			const w = 3
			mp := padRows(m)
			tbuf := make([]float32, w*mp)
			for p := 0; p < w; p++ {
				for i := 0; i < m; i++ {
					tbuf[p*mp+i] = float32((p*m+i)%7 - 3)
				}
			}
			local := tensor.NewMatrix(m, m)
			syrkBlockKernel(local, tbuf, make([]float32, 4*mp), m, w)
			for i := 0; i < m; i++ {
				for j := 0; j <= i; j++ {
					var want float32
					for p := 0; p < w; p++ {
						want += tbuf[p*mp+i] * tbuf[p*mp+j]
					}
					if got := local.At(i, j); got != want {
						t.Fatalf("m=%d (%d,%d) = %g, want %g", m, i, j, got, want)
					}
				}
			}
		}
	})
}

// fuzzFloats reinterprets fuzz bytes as float32 bit patterns, so the
// fuzzer reaches NaNs, infinities and denormals directly.
func fuzzFloats(data []byte) []float32 {
	out := make([]float32, len(data)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
	}
	return out
}

func seedBytes(rng *rand.Rand, floats int) []byte {
	b := make([]byte, 4*floats)
	for i := 0; i < floats; i++ {
		v := rng.Float32()*2 - 1
		if rng.Intn(8) == 0 {
			v = specials[rng.Intn(len(specials))]
		}
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return b
}

func FuzzSyrkTileMatchesGo(f *testing.F) {
	rng := rand.New(rand.NewSource(17))
	for _, s := range [][3]int{{1, 5, 1}, {8, 40, 96}, {12, 97, 96}, {13, 30, 7}, {48, 20, 95}} {
		f.Add(uint8(s[0]), uint8(s[2]), seedBytes(rng, s[0]*s[1]))
	}
	f.Fuzz(func(t *testing.T, rows, block uint8, data []byte) {
		needAVX2(t)
		m := int(rows)%64 + 1
		vals := fuzzFloats(data)
		n := len(vals) / m
		if n == 0 {
			t.Skip("not enough data for one column")
		}
		A := tensor.FromSlice(m, n, vals[:m*n])
		onEveryPath(t, fmt.Sprintf("syrk m=%d n=%d block=%d", m, n, block),
			tensor.NewMatrix(m, m), func(C *tensor.Matrix) {
				TallSkinny{SyrkBlock: int(block)}.Syrk(C, A)
			})
	})
}

func FuzzGemmStripMatchesGo(f *testing.F) {
	rng := rand.New(rand.NewSource(18))
	for _, s := range [][4]int{{1, 1, 8, 0}, {2, 12, 17, 0}, {5, 13, 40, 9}, {3, 2, 33, 16}, {4, 0, 9, 0}} {
		f.Add(uint8(s[0]), uint8(s[1]), uint8(s[3]), seedBytes(rng, s[0]*s[1]+s[1]*s[2]))
	}
	f.Fuzz(func(t *testing.T, rows, inner, colBlock uint8, data []byte) {
		needAVX2(t)
		m, k := int(rows)%16+1, int(inner)%16
		vals := fuzzFloats(data)
		if len(vals) < m*k {
			t.Skip("not enough data for A")
		}
		A := tensor.FromSlice(m, k, vals[:m*k])
		vals = vals[m*k:]
		n := 11 // k == 0 consumes no data: any width shows the zero fill
		if k > 0 {
			n = len(vals) / k
		}
		if n == 0 {
			t.Skip("not enough data for one column of B")
		}
		B := tensor.FromSlice(k, n, vals[:k*n])
		onEveryPath(t, fmt.Sprintf("gemm %dx%dx%d colblock=%d", m, k, n, colBlock),
			tensor.NewMatrix(m, n), func(C *tensor.Matrix) {
				TallSkinny{Workers: 1, ColBlock: int(colBlock)}.Gemm(C, A, B)
			})
	})
}

// fma32 is the Go twins' one rounding; VFMADD231PS is the assembly's. The
// gemm strip on one column with k = 2 computes fma(a, b, c·1), and c·1 is
// c, so comparing the Go path with each vector path compares the two. The
// seeds are the double-rounding case float32(math.FMA(…)) gets wrong
// (0x3f801000; the correctly rounded sum is 0x3f801001), signed zeros,
// subnormals, infinities and NaN.
func FuzzFMA32MatchesHardware(f *testing.F) {
	f32 := math.Float32bits
	one12 := f32(1 + 0x1p-12)
	f.Add(one12, one12, f32(0x1p-80))
	f.Add(one12, one12, f32(-0x1p-80))
	f.Add(f32(float32(math.Copysign(0, -1))), f32(1), uint32(0))
	f.Add(f32(math.SmallestNonzeroFloat32), f32(0.5), f32(math.SmallestNonzeroFloat32))
	f.Add(f32(1e-20), f32(1e-20), f32(-3e-39))
	f.Add(f32(float32(math.Inf(1))), f32(0), f32(1))
	f.Add(f32(float32(math.Inf(-1))), f32(2), f32(float32(math.Inf(1))))
	f.Add(f32(float32(math.NaN())), f32(1), f32(2))
	f.Add(f32(math.MaxFloat32), f32(2), f32(-math.MaxFloat32))
	f.Fuzz(func(t *testing.T, a, b, c uint32) {
		needAVX2(t)
		x, y, z := math.Float32frombits(a), math.Float32frombits(b), math.Float32frombits(c)
		A := tensor.FromSlice(1, 2, []float32{z, x})
		B := tensor.FromSlice(2, 1, []float32{1, y})
		onEveryPath(t, fmt.Sprintf("fma(%#08x, %#08x, %#08x)", a, b, c), tensor.NewMatrix(1, 1), func(C *tensor.Matrix) {
			TallSkinny{Workers: 1}.Gemm(C, A, B)
		})
	})
}

// AddColumns reads each column of a stack of padded row groups as a staged
// panel: its slice term must be the one Add gives the panel's matrix, to
// the bit, on every path — padded groups (m % 4 != 0), a last staging pass
// narrower than eight columns, and a non-zero starting column included.
func TestAddColumnsMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	eachKernelPath(t, func(t *testing.T) {
		for _, m := range []int{1, 4, 10, 12, 18, 36} {
			for _, h := range []int{1, 7, 96} {
				mp := padRows(m)
				const cols, j0 = 21, 3
				A := randomMatrix(rng, h*mp, cols)
				for p := 0; p < h; p++ {
					for i := m; i < mp; i++ {
						clear(A.Row(p*mp + i))
					}
				}
				seed := randomMatrix(rng, m, m)
				got := make([]tensor.Matrix, cols-j0)
				for q := range got {
					got[q] = *seed.Clone()
				}
				var acc SyrkAcc
				acc.AddColumns(got, A, j0)
				for q := range got {
					B := tensor.NewMatrix(m, h)
					for p := 0; p < h; p++ {
						for i := 0; i < m; i++ {
							B.Set(i, p, A.At(p*mp+i, j0+q))
						}
					}
					want := seed.Clone()
					acc.Add(want, B, 0, h, h)
					for i := 0; i < m; i++ {
						for j := 0; j <= i; j++ {
							if g, w := got[q].At(i, j), want.At(i, j); math.Float32bits(g) != math.Float32bits(w) {
								t.Fatalf("m=%d h=%d column %d: C[%d][%d] = %x, Add gives %x", m, h, j0+q, i, j, math.Float32bits(g), math.Float32bits(w))
							}
						}
					}
				}
			}
		}
	})
}
