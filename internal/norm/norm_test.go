package norm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// atanhOracle is what FisherZ replaced: the float64 atanh rounded once.
func atanhOracle(r float32) float32 { return float32(math.Atanh(float64(r))) }

// ulpsApart is the distance between two finite floats of one sign, in
// float32 steps.
func ulpsApart(a, b float32) int {
	d := int(math.Float32bits(a)) - int(math.Float32bits(b))
	if d < 0 {
		return -d
	}
	return d
}

// maxFisherUlps is the kernel's contract; it measures 1 over every float32
// in [0, 1].
const maxFisherUlps = 4

// checkFisherRun walks the float32 bit patterns lo, lo+step, … up to hi
// (all non-negative floats) and checks, at each, the error against the
// oracle below the clamp and the pinned constant from it on, bit-exact
// oddness, and that the outputs never decrease along the walk.
func checkFisherRun(t *testing.T, lo, hi, step uint32) {
	t.Helper()
	clampBits := math.Float32bits(clampA)
	prev := float32(math.Inf(-1))
	for b := lo; b <= hi; b += step {
		r := math.Float32frombits(b)
		z := FisherZ(r)
		if b >= clampBits {
			if z != clampZ {
				t.Fatalf("FisherZ(%v) = %v, want the clamp constant %v", r, z, clampZ)
			}
		} else if d := ulpsApart(z, atanhOracle(r)); d > maxFisherUlps {
			t.Fatalf("FisherZ(%v) = %v is %d ulp from math.Atanh's %v", r, z, d, atanhOracle(r))
		}
		if neg := FisherZ(-r); math.Float32bits(neg) != math.Float32bits(z)|signBit {
			t.Fatalf("FisherZ(%v) = %v but FisherZ(%v) = %v: not odd", r, z, -r, neg)
		}
		if z < prev {
			t.Fatalf("FisherZ decreases at %v (bits %#x): %v after %v", r, b, z, prev)
		}
		prev = z
	}
}

// Every 257th float32 of [0, 1]: about four million oracle calls.
func TestFisherZUlpSweep(t *testing.T) {
	checkFisherRun(t, 0, math.Float32bits(1), 257)
}

// Every float32 within 256 steps of each place the kernel changes regime:
// zero, the polynomial/log split, each exponent boundary of the log's
// argument x = (1+a)/(1−a) = 2^k·√2, the clamp and one.
func TestFisherZDenseAroundSeams(t *testing.T) {
	seams := []float32{0, 0.625, clampA, 1}
	for x := 4 * math.Sqrt2; x < 2/(1-ClampR); x *= 2 {
		seams = append(seams, float32((x-1)/(x+1)))
	}
	for _, c := range seams {
		bits := math.Float32bits(c)
		checkFisherRun(t, max(bits, 256)-256, bits+256, 1)
	}
}

func TestFisherZPinnedValues(t *testing.T) {
	if want := float32(math.Atanh(ClampR)); clampZ != want {
		t.Fatalf("clampZ = %v, want float32(math.Atanh(ClampR)) = %v", clampZ, want)
	}
	inf := float32(math.Inf(1))
	for _, c := range []struct {
		r    float32
		bits uint32
	}{
		// The values the float64 kernel gave, bit for bit: every voxel's
		// self-correlation takes the ±1 rows.
		{1, 0x40e82376}, {-1, 0xc0e82376}, {1.5, 0x40e82376}, {-1.5, 0xc0e82376},
		{inf, 0x40e82376}, {-inf, 0xc0e82376},
		{0, 0}, {float32(math.Copysign(0, -1)), signBit},
	} {
		if got := math.Float32bits(FisherZ(c.r)); got != c.bits {
			t.Errorf("FisherZ(%v) = %#x, want %#x", c.r, got, c.bits)
		}
	}
	if z := FisherZ(float32(math.NaN())); z == z {
		t.Errorf("FisherZ(NaN) = %v, want NaN", z)
	}
}

func TestFisherZKnownValues(t *testing.T) {
	cases := []struct {
		r, z float64
	}{
		{0, 0},
		{0.5, 0.5493061443},
		{-0.5, -0.5493061443},
		{0.9, 1.4722194896},
	}
	for _, c := range cases {
		got := float64(FisherZ(float32(c.r)))
		if math.Abs(got-c.z) > 1e-6 {
			t.Errorf("FisherZ(%v) = %v, want %v", c.r, got, c.z)
		}
	}
}

func TestFisherZClampsAtOne(t *testing.T) {
	for _, r := range []float32{1, -1, 1.5, -1.5} {
		z := FisherZ(r)
		if math.IsInf(float64(z), 0) || math.IsNaN(float64(z)) {
			t.Fatalf("FisherZ(%v) = %v, must be finite", r, z)
		}
	}
	if FisherZ(1) <= FisherZ(0.99) {
		t.Fatal("clamped value should still be large")
	}
}

func TestFisherZOddFunction(t *testing.T) {
	f := func(r float32) bool {
		return math.Float32bits(FisherZ(-r)) == math.Float32bits(FisherZ(r))^signBit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFisherZMonotone(t *testing.T) {
	prev := FisherZ(-0.99)
	for r := float32(-0.98); r < 0.99; r += 0.01 {
		z := FisherZ(r)
		if z <= prev {
			t.Fatalf("FisherZ not monotone at r=%v", r)
		}
		prev = z
	}
}

func columnMoments(data []float32, rows, cols, j int) (mean, std float64) {
	var sum, sumSq float64
	for i := 0; i < rows; i++ {
		f := float64(data[i*cols+j])
		sum += f
		sumSq += f * f
	}
	n := float64(rows)
	mean = sum / n
	v := sumSq/n - mean*mean
	if v < 0 {
		v = 0
	}
	return mean, math.Sqrt(v)
}

func TestZScoreColumnsMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows, cols := 12, 7
	data := make([]float32, rows*cols)
	for i := range data {
		data[i] = rng.Float32()*4 - 2
	}
	new(Scratch).sweep(data, cols, data, rows, cols, cols, false)
	for j := 0; j < cols; j++ {
		mean, std := columnMoments(data, rows, cols, j)
		if math.Abs(mean) > 1e-5 {
			t.Fatalf("column %d mean %v after z-scoring", j, mean)
		}
		if math.Abs(std-1) > 1e-4 {
			t.Fatalf("column %d std %v after z-scoring", j, std)
		}
	}
}

func TestZScoreColumnsConstantColumn(t *testing.T) {
	rows, cols := 5, 2
	data := make([]float32, rows*cols)
	for i := 0; i < rows; i++ {
		data[i*cols] = 3.7 // constant column 0
		data[i*cols+1] = float32(i)
	}
	new(Scratch).sweep(data, cols, data, rows, cols, cols, false)
	for i := 0; i < rows; i++ {
		if data[i*cols] != 0 {
			t.Fatalf("constant column must z-score to 0, got %v", data[i*cols])
		}
	}
}

func TestZScoreColumnsEmpty(t *testing.T) {
	new(Scratch).sweep(nil, 0, nil, 0, 0, 0, false) // must not panic
	new(Scratch).sweep([]float32{1}, 1, []float32{1}, 1, 1, 1, false)
}

func TestZScoreColumnsShortBlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	short := make([]float32, 3)
	new(Scratch).sweep(short, 2, short, 2, 2, 2, false)
}

func TestFisherThenZScoreEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 2 + rng.Intn(10)
		cols := 1 + rng.Intn(10)
		a := make([]float32, rows*cols)
		for i := range a {
			a[i] = rng.Float32()*1.8 - 0.9 // correlation-like values
		}
		b := append([]float32(nil), a...)

		// Fused path.
		new(Scratch).FisherThenZScoreStrided(a, rows, cols, cols)
		// Separate path.
		for i, r := range b {
			b[i] = FisherZ(r)
		}
		new(Scratch).sweep(b, cols, b, rows, cols, cols, false)

		// One sweep serves both, so the results are the same bits.
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFisherThenZScoreSingleRow(t *testing.T) {
	// One epoch per subject: variance is zero, everything becomes 0.
	data := []float32{0.3, -0.7, 0.1}
	new(Scratch).FisherThenZScoreStrided(data, 1, 3, 3)
	for i, v := range data {
		if v != 0 {
			t.Fatalf("single-row z-score should zero out, got %v at %d", v, i)
		}
	}
}
