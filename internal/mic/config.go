// Package mic models the machines of the paper's evaluation — the Intel
// Xeon Phi 5110P coprocessor and the Xeon E5-2670 processor — well enough
// to regenerate its vTune-style instrumentation: memory reference counts,
// L1/L2 cache miss counts from a set-associative cache simulator,
// vectorization intensity from a VPU instruction counter, and wall-time /
// GFLOPS estimates from an analytic in-order-core cost model.
//
// Kernels are not executed on the model; instead, trace drivers (package
// mic/access) replay each kernel's memory access and vector instruction
// pattern into a Machine, typically at a scaled-down problem size. The
// counters then carry the same relative structure as the paper's Tables 1
// and 5–8.
package mic

// Config describes a machine's geometry and cost parameters.
type Config struct {
	// Name labels the machine in reports.
	Name string
	// Cores is the number of physical cores; ThreadsPerCore the hardware
	// threads each core runs (4 on the coprocessor, 2 with hyperthreading
	// on the processor).
	Cores, ThreadsPerCore int
	// ClockHz is the core clock.
	ClockHz float64
	// LineSize is the cache line size in bytes (64 on both machines).
	LineSize int
	// L1Size/L1Assoc describe the per-core L1 data cache.
	L1Size, L1Assoc int
	// L2Size/L2Assoc describe the per-core private L2 (coprocessor) or
	// the per-core share of the LLC (processor).
	L2Size, L2Assoc int
	// VectorLanes is the single-precision SIMD width (16 on the
	// coprocessor's 512-bit VPU, 8 with AVX).
	VectorLanes int
	// L2HitCycles is the L1-miss/L2-hit latency. RemoteL2Cycles is the
	// cost of an L2 miss served by another core's cache through the ring
	// and tag directory (the paper's empirical ~250 cycles); MissCycles
	// the cost of going to memory (~302 cycles on the 5110P).
	L2HitCycles, RemoteL2Cycles, MissCycles int
	// FMA reports whether one vector instruction retires two flops per
	// lane (fused multiply-add).
	FMA bool
	// EMUCycles is the per-instruction cost of transcendental vector
	// operations (the coprocessor's extended math unit makes these
	// cheap; the processor expands them to polynomial code).
	EMUCycles int
	// OverlapFactor in [0,1) is the fraction of memory stall latency the
	// in-order core hides via its hardware threads and outstanding
	// misses. Higher means memory latency is better hidden.
	OverlapFactor float64
	// DualVPU marks cores that can retire two vector instructions per
	// cycle (KNL's twin AVX-512 pipes).
	DualVPU bool
}

// Threads returns the total hardware thread count.
func (c Config) Threads() int { return c.Cores * c.ThreadsPerCore }

// XeonPhi5110P returns the coprocessor model of the paper's §2: 60 cores ×
// 4 threads at 1053MHz, 32KB L1 / 512KB L2 per core, 512-bit VPU, ~2.02
// single-precision TFLOPS peak.
func XeonPhi5110P() Config {
	return Config{
		Name:           "Xeon Phi 5110P",
		Cores:          60,
		ThreadsPerCore: 4,
		ClockHz:        1.053e9,
		LineSize:       64,
		L1Size:         32 << 10,
		L1Assoc:        8,
		L2Size:         512 << 10,
		L2Assoc:        8,
		VectorLanes:    16,
		L2HitCycles:    24,
		RemoteL2Cycles: 250, // paper §2: remote L2 via ring + tag directory
		MissCycles:     302, // paper §2: main memory
		FMA:            true,
		EMUCycles:      4, // hardware transcendentals
		OverlapFactor:  0.55,
	}
}

// XeonE5_2670 returns the processor model of §5.5: 8 cores × 2 threads at
// 2.6GHz, 256-bit AVX, 20MB shared LLC (≈2.5MB per core; the paper quotes
// 1.28MB per thread).
func XeonE5_2670() Config {
	return Config{
		Name:           "Xeon E5-2670",
		Cores:          8,
		ThreadsPerCore: 2,
		ClockHz:        2.6e9,
		LineSize:       64,
		L1Size:         32 << 10,
		L1Assoc:        8,
		L2Size:         2560 << 10, // per-core LLC share (20MB / 8 cores)
		L2Assoc:        20,
		VectorLanes:    8,
		L2HitCycles:    12,
		RemoteL2Cycles: 40, // shared LLC hit after private-L2 eviction
		MissCycles:     180,
		FMA:            false, // Sandy Bridge AVX: separate mul + add ports
		EMUCycles:      40,    // software transcendental expansion
		OverlapFactor:  0.85,  // out-of-order core hides most latency
	}
}

// XeonPhiKNL returns a model of the next-generation Xeon Phi (Knights
// Landing) the paper's §7 expects the implementation to migrate to with
// moderate effort: 64 out-of-order-ish cores × 4 threads at 1.3GHz, two
// 512-bit VPUs per core (two AVX-512 FMAs per cycle), 1MB L2 per 2-core
// tile (512KB per core here) and high-bandwidth MCDRAM that roughly
// halves the exposed miss latency.
func XeonPhiKNL() Config {
	return Config{
		Name:           "Xeon Phi KNL (projected)",
		Cores:          64,
		ThreadsPerCore: 4,
		ClockHz:        1.3e9,
		LineSize:       64,
		L1Size:         32 << 10,
		L1Assoc:        8,
		L2Size:         512 << 10,
		L2Assoc:        16,
		VectorLanes:    16,
		L2HitCycles:    17,
		RemoteL2Cycles: 130, // mesh + tile-pair L2
		MissCycles:     160, // MCDRAM
		FMA:            true,
		EMUCycles:      8,
		OverlapFactor:  0.7, // better prefetch + 2-wide decode
		DualVPU:        true,
	}
}
