package main

import (
	"errors"
	"math"
	"testing"
	"time"

	"fcma"
	"fcma/internal/obs/trace"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestPercentileSampleRule pins the sample-count rule: no percentile
// without ten samples beyond it.
func TestPercentileSampleRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so sorting is exercised
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64 // 0: too few samples beyond
	}{
		{100, 90, 90},  // ranks 91..100 lie beyond: ten
		{99, 90, 0},    // the 90th value of 99 leaves nine
		{200, 95, 190}, // ten beyond
		{199, 95, 0},   // nine beyond
		{240, 95, 228}, // twelve beyond
		{21, 50, 11},   // ten beyond the median of 21
		{20, 50, 10},   // nearest rank 10 of 20 leaves ten
		{19, 50, 0},    // nine beyond
		{0, 50, 0},
	} {
		if got := percentile(ramp(c.n), c.p); got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

// TestSelfSeconds pins the self-time arithmetic: a span's duration minus
// the part of its interval its children cover, overlaps counted once and
// children clipped to the parent.
func TestSelfSeconds(t *testing.T) {
	const s = int64(1e9)
	spans := []trace.Span{
		{ID: 1, StartNS: 10 * s, DurNS: 10 * s},           // parent: [10, 20)
		{ID: 2, Parent: 1, StartNS: 11 * s, DurNS: 2 * s}, // [11, 13)
		{ID: 3, Parent: 1, StartNS: 12 * s, DurNS: 3 * s}, // [12, 15) overlaps the first
		{ID: 4, Parent: 1, StartNS: 18 * s, DurNS: 5 * s}, // [18, 23) runs past the parent
		{ID: 5, Parent: 2, StartNS: 11 * s, DurNS: 1 * s}, // a grandchild: not the parent's
		{ID: 6, StartNS: 10 * s, DurNS: 10 * s},           // an unrelated root
	}
	// Covered: [11, 15) and [18, 20) = 6 s of 10.
	if got := selfSeconds(spans, 1); got != 4 {
		t.Errorf("self time of the parent = %v s, want 4", got)
	}
	if got := selfSeconds(spans, 2); got != 1 {
		t.Errorf("self time of the first child = %v s, want 1", got)
	}
	if got := selfSeconds(spans, 6); got != 10 {
		t.Errorf("self time of a childless span = %v s, want its duration 10", got)
	}
	if got := selfSeconds(spans, 99); got != 0 {
		t.Errorf("self time of an unknown span = %v, want 0", got)
	}
}

func TestRecorderNilIsInert(t *testing.T) {
	var r *recorder
	sp := r.root("op", 0)
	sp.child("x").end()
	if got := sp.end(); got != 0 {
		t.Errorf("nil span ended with %v s", got)
	}
}

// TestQuietestThird builds nine ops of 100 voxels: a slow first third, a
// quiet middle, a slow end with one failed op. The quiet third sets both
// numbers, and the failed op counts for nothing.
func TestQuietestThird(t *testing.T) {
	sys := &system{inputs: []input{{spec: fcma.Spec{Voxels: 100}}}}
	t0 := time.Unix(1000, 0)
	var samples []sample
	at := t0
	for i, ms := range []int{300, 320, 310, 200, 210, 190, 400, 390, 410} {
		d := time.Duration(ms) * time.Millisecond
		samples = append(samples, sample{i: i, start: at, dur: d})
		at = at.Add(d)
	}
	// Half of the last op's wall was stolen: it counts as 205 ms, which does
	// not make the last third the quietest.
	samples[8].stolen0, samples[8].stolen1 = 7*time.Second, 7*time.Second+205*time.Millisecond
	samples = append(samples, sample{i: 9, start: at, dur: time.Millisecond, err: errors.New("failed")})
	// Hand them over out of order: blocks go by start time.
	samples[0], samples[5] = samples[5], samples[0]

	p50, vps := quietestThird(sys, samples)
	if p50 != 0.2 {
		t.Errorf("op_p50_s = %v, want 0.2 (the median of the middle third)", p50)
	}
	if want := 300 / 0.6; math.Abs(vps-want) > 1e-9 {
		t.Errorf("voxels_per_s = %v, want %v (300 voxels in the middle third's 0.6 s)", vps, want)
	}
	if p50, vps := quietestThird(sys, samples[9:]); p50 != 0 || vps != 0 {
		t.Errorf("no completed op: got %v, %v, want zeros", p50, vps)
	}
	if p50, _ := quietestThird(sys, samples[1:3]); p50 != 0.31 {
		t.Errorf("two ops make two blocks: op_p50_s = %v, want 0.31", p50)
	}
}
