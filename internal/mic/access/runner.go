package access

import "fcma/internal/mic"

// RunScaled traces `driver` at a scaled-down shape and extrapolates the
// counters to the full shape by the work ratio: total instruction counts
// scale with the arithmetic, while miss *rates* are preserved because the
// block sizes relative to the cache stay fixed (DESIGN.md §6). The
// returned machine's EstimateTime and GFLOPS then describe the full-size
// task.
func RunScaled(cfg mic.Config, full Shape, scale float64, work func(Shape) float64, driver func(*mic.Machine, Shape)) *mic.Machine {
	traced := Scaled(full, scale)
	m := mic.NewMachine(cfg)
	driver(m, traced)
	ratio := work(full) / work(traced)
	if ratio < 1 {
		ratio = 1
	}
	active := m.ActiveThreads
	m.Counters.Scale(ratio)
	m.ActiveThreads = active
	return m
}
