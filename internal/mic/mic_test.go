package mic

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCacheGeometryPanics(t *testing.T) {
	for _, bad := range [][3]int{{0, 8, 64}, {1024, 0, 64}, {1024, 8, 0}, {1000, 8, 64}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("geometry %v accepted", bad)
				}
			}()
			newCache(bad[0], bad[1], bad[2])
		}()
	}
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := newCache(1024, 2, 64)
	if c.Access(0) {
		t.Fatal("cold access must miss")
	}
	if !c.Access(0) {
		t.Fatal("second access must hit")
	}
	if !c.Access(63) {
		t.Fatal("same line must hit")
	}
	if c.Access(64) {
		t.Fatal("next line must miss")
	}
	if c.Hits != 2 || c.Misses != 2 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache, 8 sets of 64B lines: lines mapping to set 0 are
	// multiples of 8 lines (512B).
	c := newCache(1024, 2, 64)
	c.Access(0)    // set 0, way 0
	c.Access(512)  // set 0, way 1
	c.Access(0)    // refresh line 0
	c.Access(1024) // evicts 512 (LRU)
	if !c.Access(0) {
		t.Fatal("line 0 should have survived")
	}
	if c.Access(512) {
		t.Fatal("line 512 should have been evicted")
	}
}

func TestCacheCapacityBehaviour(t *testing.T) {
	// Working set fits: second sweep all hits. Working set 2x: thrashing.
	c := newCache(32<<10, 8, 64)
	for addr := uint64(0); addr < 32<<10; addr += 64 {
		c.Access(addr)
	}
	h0 := c.Hits
	for addr := uint64(0); addr < 32<<10; addr += 64 {
		if !c.Access(addr) {
			t.Fatalf("resident line %d missed", addr)
		}
	}
	if c.Hits-h0 != 512 {
		t.Fatalf("expected 512 hits, got %d", c.Hits-h0)
	}
	c.Reset()
	for sweep := 0; sweep < 3; sweep++ {
		for addr := uint64(0); addr < 64<<10; addr += 64 {
			c.Access(addr)
		}
	}
	// LRU + sequential sweeps over 2x capacity: everything misses.
	if c.Hits != 0 {
		t.Fatalf("thrashing sweep should not hit, got %d hits", c.Hits)
	}
}

func TestCacheResetClears(t *testing.T) {
	c := newCache(1024, 2, 64)
	c.Access(0)
	c.Reset()
	if c.Hits != 0 || c.Misses != 0 {
		t.Fatal("counters survive Reset")
	}
	if c.Access(0) {
		t.Fatal("contents survive Reset")
	}
}

// peakFlops is a configuration's peak single-precision flops/second:
// every lane of every core retiring one operation a cycle, two with FMA,
// twice that with a second vector pipe.
func peakFlops(c Config) float64 {
	perLane := 1.0
	if c.FMA {
		perLane = 2.0
	}
	if c.DualVPU {
		perLane *= 2
	}
	return float64(c.Cores) * float64(c.VectorLanes) * perLane * c.ClockHz
}

func TestConfigsPeakFlops(t *testing.T) {
	phi := XeonPhi5110P()
	// Paper §2: 2.02 TFLOPS single precision.
	if p := peakFlops(phi); math.Abs(p-2.02e12) > 0.03e12 {
		t.Fatalf("Phi peak = %v", p)
	}
	if phi.Threads() != 240 {
		t.Fatalf("Phi threads = %d", phi.Threads())
	}
	xeon := XeonE5_2670()
	if xeon.Threads() != 16 {
		t.Fatalf("Xeon threads = %d", xeon.Threads())
	}
	if xeon.VectorLanes != 8 || phi.VectorLanes != 16 {
		t.Fatal("vector widths wrong")
	}
}

func TestMachineAllocAligned(t *testing.T) {
	m := NewMachine(XeonPhi5110P())
	a := m.Alloc(100)
	b := m.Alloc(1)
	if a%64 != 0 || b%64 != 0 {
		t.Fatal("allocations must be line aligned")
	}
	if b <= a || b-a < 100 {
		t.Fatal("allocations overlap")
	}
}

func TestMachineLoadCountsRefsAndMisses(t *testing.T) {
	m := NewMachine(XeonPhi5110P())
	base := m.Alloc(1 << 20)
	// 16 sequential 64B vector loads over one 1KB region: 16 refs,
	// 16 L1 misses (cold), then a re-read: 16 refs, 0 misses.
	for i := 0; i < 16; i++ {
		m.Load(base+uint64(i*64), 64)
	}
	if m.MemRefs != 16 || m.L1Misses != 16 || m.L2Misses != 16 {
		t.Fatalf("cold pass: refs=%d l1=%d l2=%d", m.MemRefs, m.L1Misses, m.L2Misses)
	}
	for i := 0; i < 16; i++ {
		m.Load(base+uint64(i*64), 64)
	}
	if m.MemRefs != 32 || m.L1Misses != 16 {
		t.Fatalf("warm pass: refs=%d l1=%d", m.MemRefs, m.L1Misses)
	}
}

func TestMachineScalarVsVectorIntensity(t *testing.T) {
	m := NewMachine(XeonPhi5110P())
	for i := 0; i < 100; i++ {
		m.VectorOp(16, 32)
	}
	if vi := m.VectorIntensity(); vi != 16 {
		t.Fatalf("vector intensity %v", vi)
	}
	m.Reset()
	for i := 0; i < 100; i++ {
		m.VectorOp(1, 2) // a scalar op is a one-lane VPU op
	}
	if vi := m.VectorIntensity(); vi != 1 {
		t.Fatalf("scalar intensity %v", vi)
	}
}

func TestUnalignedAccessTouchesTwoLines(t *testing.T) {
	m := NewMachine(XeonPhi5110P())
	base := m.Alloc(256)
	m.Load(base+60, 8) // straddles a line boundary
	if m.MemRefs != 1 {
		t.Fatalf("refs = %d", m.MemRefs)
	}
	if m.L1Misses != 2 {
		t.Fatalf("straddling load should miss two lines, got %d", m.L1Misses)
	}
}

func TestEstimateTimeMonotoneInMisses(t *testing.T) {
	cfg := XeonPhi5110P()
	a := NewMachine(cfg)
	a.VPUInstructions = 1e9
	a.L2Misses = 1e6
	b := NewMachine(cfg)
	b.VPUInstructions = 1e9
	b.L2Misses = 1e9
	if a.EstimateTime() >= b.EstimateTime() {
		t.Fatal("more misses must cost more time")
	}
}

func TestEstimateTimeThreadStarvation(t *testing.T) {
	cfg := XeonPhi5110P()
	full := NewMachine(cfg)
	full.VPUInstructions = 1e9
	starved := NewMachine(cfg)
	starved.VPUInstructions = 1e9
	starved.ActiveThreads = 120 // baseline SVM stage: one thread per voxel
	if starved.EstimateTime() <= full.EstimateTime() {
		t.Fatal("fewer active threads must cost more time")
	}
}

func TestGFLOPSBelowPeak(t *testing.T) {
	cfg := XeonPhi5110P()
	m := NewMachine(cfg)
	// Perfectly vectorized FMA stream with no misses: near peak.
	m.VPUInstructions = 1e8
	m.VectorizedElements = 16e8
	m.Flops = 32e8
	g := m.GFLOPS()
	peak := peakFlops(cfg) / 1e9
	if g <= 0 || g > peak*1.001 {
		t.Fatalf("GFLOPS %v vs peak %v", g, peak)
	}
}

func TestCountersAddScale(t *testing.T) {
	a := Counters{MemRefs: 10, L2Misses: 4, VPUInstructions: 2, VectorizedElements: 32, Flops: 64}
	b := a
	a.Add(b)
	if a.MemRefs != 20 || a.Flops != 128 {
		t.Fatalf("Add wrong: %+v", a)
	}
	a.Scale(0.5)
	if a.MemRefs != 10 || a.VectorizedElements != 32 {
		t.Fatalf("Scale wrong: %+v", a)
	}
}

func TestVectorIntensityBounds(t *testing.T) {
	f := func(nOps uint8, lanes uint8) bool {
		m := NewMachine(XeonPhi5110P())
		l := int(lanes%16) + 1
		for i := 0; i < int(nOps); i++ {
			m.VectorOp(l, l)
		}
		vi := m.VectorIntensity()
		if nOps == 0 {
			return vi == 0
		}
		return vi >= 1 && vi <= 16 && math.Abs(vi-float64(l)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMachineResetPreservesHeap(t *testing.T) {
	m := NewMachine(XeonPhi5110P())
	a := m.Alloc(128)
	m.Reset()
	b := m.Alloc(128)
	if b <= a {
		t.Fatal("Reset must not recycle the address space")
	}
}

func TestRemoteL2Classification(t *testing.T) {
	m := NewMachine(XeonPhi5110P())
	base := m.Alloc(4 << 20) // far larger than L2
	// First streaming pass: every L2 miss is compulsory (DRAM).
	for a := uint64(0); a < 4<<20; a += 64 {
		m.Load(base+a, 64)
	}
	if m.RemoteL2Hits != 0 {
		t.Fatalf("compulsory pass produced %d remote hits", m.RemoteL2Hits)
	}
	first := m.L2Misses
	// Second pass: the working set exceeds L2, so these misses hit lines
	// cached before — classified remote.
	for a := uint64(0); a < 4<<20; a += 64 {
		m.Load(base+a, 64)
	}
	if m.RemoteL2Hits != m.L2Misses-first {
		t.Fatalf("second-pass misses should all be remote: %d of %d", m.RemoteL2Hits, m.L2Misses-first)
	}
	if m.RemoteL2Hits == 0 {
		t.Fatal("no remote hits on a capacity-missing re-read")
	}
}

func TestRemoteL2CheaperThanDRAM(t *testing.T) {
	cfg := XeonPhi5110P()
	dram := NewMachine(cfg)
	dram.L2Misses = 1e6
	remote := NewMachine(cfg)
	remote.L2Misses = 1e6
	remote.RemoteL2Hits = 1e6
	if remote.EstimateTime() >= dram.EstimateTime() {
		t.Fatal("remote-L2 misses must be cheaper than DRAM misses")
	}
}

// The cache simulator runs once per simulated memory reference; an access
// allocates nothing, hit or miss.
func TestCacheAccessAllocsZero(t *testing.T) {
	c := newCache(1024, 2, 64)
	var addr uint64
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			c.Access(addr)
			addr += 40
		}
	}); n != 0 {
		t.Fatalf("Access allocates %v per run, want 0", n)
	}
}
