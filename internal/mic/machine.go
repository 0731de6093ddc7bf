package mic

import (
	"fmt"
	"time"
)

// Counters aggregates the vTune-style quantities the paper reports.
type Counters struct {
	// MemRefs counts load/store instructions (each vector load/store is
	// one reference, as vTune counts them).
	MemRefs uint64
	// L1Misses and L2Misses are line-granularity miss counts from the
	// cache simulator. RemoteL2Hits is the subset of L2Misses whose line
	// had been cached before (eviction victims, servable by a remote L2
	// through the tag directory rather than memory, paper §2).
	L1Misses, L2Misses, RemoteL2Hits uint64
	// VPUInstructions counts vector-unit instructions (scalar float ops
	// also execute on the VPU, with one active lane).
	VPUInstructions uint64
	// VectorizedElements counts lanes doing useful work across all VPU
	// instructions; VectorIntensity() = VectorizedElements/VPUInstructions.
	VectorizedElements uint64
	// EMUInstructions counts transcendental (extended-math-unit) ops.
	EMUInstructions uint64
	// Flops counts useful floating point operations (for GFLOPS).
	Flops uint64
}

// VectorIntensity returns vectorized elements per VPU instruction — the
// paper's utilization metric with an ideal of 16 on the coprocessor.
func (c Counters) VectorIntensity() float64 {
	if c.VPUInstructions == 0 {
		return 0
	}
	return float64(c.VectorizedElements) / float64(c.VPUInstructions)
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.MemRefs += other.MemRefs
	c.L1Misses += other.L1Misses
	c.L2Misses += other.L2Misses
	c.RemoteL2Hits += other.RemoteL2Hits
	c.VPUInstructions += other.VPUInstructions
	c.VectorizedElements += other.VectorizedElements
	c.EMUInstructions += other.EMUInstructions
	c.Flops += other.Flops
}

// Scale multiplies every counter by f (used to extrapolate a scaled-down
// trace to full problem size).
func (c *Counters) Scale(f float64) {
	c.MemRefs = uint64(float64(c.MemRefs) * f)
	c.L1Misses = uint64(float64(c.L1Misses) * f)
	c.L2Misses = uint64(float64(c.L2Misses) * f)
	c.RemoteL2Hits = uint64(float64(c.RemoteL2Hits) * f)
	c.VPUInstructions = uint64(float64(c.VPUInstructions) * f)
	c.VectorizedElements = uint64(float64(c.VectorizedElements) * f)
	c.EMUInstructions = uint64(float64(c.EMUInstructions) * f)
	c.Flops = uint64(float64(c.Flops) * f)
}

// Machine simulates one core's memory hierarchy plus whole-chip counters.
// Trace drivers replay a kernel's access pattern through it; the cache
// state sees the stream one worker thread would see (FCMA's kernels
// partition data so threads do not share working sets), while the counters
// accumulate the whole task's instruction totals.
type Machine struct {
	Cfg Config
	L1  *Cache
	L2  *Cache
	Counters
	// ActiveThreads is the number of hardware threads with work during
	// the traced phase; it defaults to Cfg.Threads(). The baseline SVM
	// stage underuses the chip (120 voxels on 240 threads), which this
	// captures (§3.3.3).
	ActiveThreads int

	heap uint64
	// everCached tracks lines that have been resident before, so an L2
	// miss on such a line is classified as a remote-L2 service (the
	// directory can find the victim's copy or a sharer) instead of DRAM.
	everCached map[uint64]struct{}
}

// NewMachine builds a machine for the given configuration.
func NewMachine(cfg Config) *Machine {
	return &Machine{
		Cfg:           cfg,
		L1:            newCache(cfg.L1Size, cfg.L1Assoc, cfg.LineSize),
		L2:            newCache(cfg.L2Size, cfg.L2Assoc, cfg.LineSize),
		ActiveThreads: cfg.Threads(),
		heap:          1 << 12, // leave page zero unused
		everCached:    make(map[uint64]struct{}),
	}
}

// Reset clears caches and counters (the heap layout is preserved so a
// second phase can reuse earlier allocations' addresses).
func (m *Machine) Reset() {
	m.L1.Reset()
	m.L2.Reset()
	m.Counters = Counters{}
	m.ActiveThreads = m.Cfg.Threads()
	m.everCached = make(map[uint64]struct{})
}

// Alloc reserves size bytes in the abstract address space, aligned to the
// line size, and returns the base address.
func (m *Machine) Alloc(size int) uint64 {
	if size < 0 {
		panic(fmt.Sprintf("mic: alloc %d bytes", size))
	}
	line := uint64(m.Cfg.LineSize)
	base := (m.heap + line - 1) / line * line
	m.heap = base + uint64(size)
	return base
}

// touch walks the lines covered by [addr, addr+bytes) through the
// hierarchy.
func (m *Machine) touch(addr uint64, bytes int) {
	line := uint64(m.Cfg.LineSize)
	first := addr / line
	last := (addr + uint64(bytes) - 1) / line
	for l := first; l <= last; l++ {
		if !m.L1.Access(l * line) {
			m.L1Misses++
			if !m.L2.Access(l * line) {
				m.L2Misses++
				if _, seen := m.everCached[l]; seen {
					m.RemoteL2Hits++
				} else {
					m.everCached[l] = struct{}{}
				}
			}
		}
	}
}

// Load records one load instruction of the given width in bytes.
func (m *Machine) Load(addr uint64, bytes int) {
	m.MemRefs++
	m.touch(addr, bytes)
}

// Store records one store instruction of the given width in bytes.
func (m *Machine) Store(addr uint64, bytes int) {
	m.MemRefs++
	m.touch(addr, bytes)
}

// VectorOp records one VPU instruction with the given number of active
// lanes performing flops useful floating point operations.
func (m *Machine) VectorOp(lanes, flops int) {
	m.VPUInstructions++
	m.VectorizedElements += uint64(lanes)
	m.Flops += uint64(flops)
}

// EMUOp records one transcendental vector instruction over lanes elements.
func (m *Machine) EMUOp(lanes int) {
	m.EMUInstructions++
	m.VPUInstructions++
	m.VectorizedElements += uint64(lanes)
	m.Flops += uint64(lanes) // count a transcendental as one flop per lane
}

// EstimateTime converts the accumulated counters into a wall-time estimate
// using the in-order core model: compute cycles issue one VPU instruction
// per core per cycle; exposed memory stalls are the miss latencies divided
// across the core's hardware threads and discounted by the overlap factor.
func (m *Machine) EstimateTime() time.Duration {
	cfg := m.Cfg
	active := m.ActiveThreads
	if active <= 0 || active > cfg.Threads() {
		active = cfg.Threads()
	}
	activeCores := float64(active) / float64(cfg.ThreadsPerCore)
	if activeCores > float64(cfg.Cores) {
		activeCores = float64(cfg.Cores)
	}
	if activeCores < 1 {
		activeCores = 1
	}
	threadsPerActiveCore := float64(active) / activeCores

	computeCycles := (float64(m.VPUInstructions) + float64(cfg.EMUCycles-1)*float64(m.EMUInstructions)) / activeCores
	if cfg.DualVPU {
		computeCycles /= 2
	}
	remote := cfg.RemoteL2Cycles
	if remote == 0 {
		remote = cfg.MissCycles
	}
	dramMisses := float64(m.L2Misses - m.RemoteL2Hits)
	stall := float64(m.L1Misses)*float64(cfg.L2HitCycles) +
		float64(m.RemoteL2Hits)*float64(remote) +
		dramMisses*float64(cfg.MissCycles)
	exposed := stall * (1 - cfg.OverlapFactor) / activeCores / threadsPerActiveCore

	seconds := (computeCycles + exposed) / cfg.ClockHz
	return time.Duration(seconds * float64(time.Second))
}

// GFLOPS returns the achieved GFLOPS implied by the counters and the time
// estimate.
func (m *Machine) GFLOPS() float64 {
	t := m.EstimateTime().Seconds()
	if t == 0 {
		return 0
	}
	return float64(m.Flops) / t / 1e9
}
