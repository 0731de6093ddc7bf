package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if m := Mean([]float32{1, 2, 3, 4}); m != 2.5 {
		t.Fatalf("Mean = %v", m)
	}
	if m := Mean(nil); m != 0 {
		t.Fatalf("Mean(nil) = %v", m)
	}
}

func TestVariance(t *testing.T) {
	// Population variance of {2,4,4,4,5,5,7,9} is 4.
	v := Variance([]float32{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(v-4) > 1e-9 {
		t.Fatalf("Variance = %v, want 4", v)
	}
	if Variance(nil) != 0 {
		t.Fatal("Variance(nil) != 0")
	}
}

func TestVarianceNonNegative(t *testing.T) {
	// Constant vectors can round to tiny negative variance in the
	// E[X²]−E[X]² formulation; the result must clamp to zero.
	xs := make([]float32, 1000)
	for i := range xs {
		xs[i] = 0.1
	}
	if v := Variance(xs); v < 0 {
		t.Fatalf("Variance clamping failed: %v", v)
	}
}

func TestMeanStdMatchesTwoPass(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		xs := make([]float32, n)
		for i := range xs {
			xs[i] = rng.Float32()*10 - 5
		}
		mean, std := MeanStd(xs)
		// Two-pass reference.
		var sum float64
		for _, v := range xs {
			sum += float64(v)
		}
		refMean := sum / float64(n)
		var ss float64
		for _, v := range xs {
			d := float64(v) - refMean
			ss += d * d
		}
		refStd := math.Sqrt(ss / float64(n))
		return math.Abs(mean-refMean) < 1e-6 && math.Abs(std-refStd) < 1e-5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDot(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	if d := Dot(a, b); d != 32 {
		t.Fatalf("Dot = %v", d)
	}
	if d := Dot32(a, b); d != 32 {
		t.Fatalf("Dot32 = %v", d)
	}
}

func TestDotLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float32{1}, []float32{1, 2})
}
