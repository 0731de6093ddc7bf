package report

import (
	"fmt"
	"time"

	"fcma/internal/mic"
	"fcma/internal/mic/access"
)

// fig9Shapes returns the per-dataset task shapes with the baseline's
// memory-limited voxel counts (§5.4.1: the baseline fits 120 face-scene or
// 60 attention voxels on the coprocessor; the optimized implementation
// takes 240 by reducing to kernel matrices).
func fig9Shapes() []struct {
	name           string
	baseShape      access.Shape
	optShape       access.Shape
	paperSpeedup   float64
	paperXeonSpeed float64
} {
	fs := access.FaceSceneTask()
	at := access.AttentionTask()
	atBase := at
	atBase.V = 60
	return []struct {
		name           string
		baseShape      access.Shape
		optShape       access.Shape
		paperSpeedup   float64
		paperXeonSpeed float64
	}{
		{"face-scene", fs, fs, 5.24, 1.4},
		{"attention", atBase, at, 16.39, 2.5},
	}
}

// perVoxel normalizes a task time to per-voxel cost, the paper's metric
// for Fig. 9 (the two implementations process different voxel counts).
func perVoxel(t time.Duration, voxels int) float64 {
	return t.Seconds() / float64(voxels)
}

// speedupOn computes the optimized-over-baseline per-voxel speedup for one
// dataset on one machine.
func (o *Runner) speedupOn(cfg mic.Config, baseShape, optShape access.Shape) (base, opt float64) {
	pb := o.baselinePhases(cfg, baseShape)
	po := o.optimizedPhases(cfg, optShape)
	return perVoxel(pb.total(), baseShape.V), perVoxel(po.total(), optShape.V)
}

// Fig9 regenerates the single-coprocessor improvement of the optimized
// implementation over the baseline, per-voxel normalized.
func (o *Runner) Fig9() *Table {
	cfg := mic.XeonPhi5110P()
	t := &Table{
		Title:   "Figure 9: optimized vs baseline on one coprocessor (per-voxel normalized)",
		Headers: []string{"dataset", "baseline", "optimized", "speedup", "paper"},
	}
	for _, d := range fig9Shapes() {
		base, opt := o.speedupOn(cfg, d.baseShape, d.optShape)
		t.AddRow(d.name,
			fmt.Sprintf("%.1f ms/voxel", base*1e3),
			fmt.Sprintf("%.1f ms/voxel", opt*1e3),
			speedup(base/opt),
			speedup(d.paperSpeedup))
	}
	return t
}

// Fig10 regenerates the same comparison on the Xeon E5-2670 processor,
// where the larger cache per thread and narrower vectors shrink the gap.
func (o *Runner) Fig10() *Table {
	cfg := mic.XeonE5_2670()
	t := &Table{
		Title:   "Figure 10: optimized vs baseline on the Xeon E5-2670 (per-voxel normalized)",
		Headers: []string{"dataset", "baseline", "optimized", "speedup", "paper"},
	}
	for _, d := range fig9Shapes() {
		base, opt := o.speedupOn(cfg, d.baseShape, d.optShape)
		t.AddRow(d.name,
			fmt.Sprintf("%.1f ms/voxel", base*1e3),
			fmt.Sprintf("%.1f ms/voxel", opt*1e3),
			speedup(base/opt),
			speedup(d.paperXeonSpeed))
	}
	return t
}

// Fig11 regenerates the processor-vs-coprocessor comparison: baseline and
// optimized on both machines, normalized to the processor baseline.
func (o *Runner) Fig11() *Table {
	phi := mic.XeonPhi5110P()
	xeon := mic.XeonE5_2670()
	t := &Table{
		Title:   "Figure 11: E5-2670 vs Phi 5110P, baseline and optimized (relative to E5 baseline)",
		Headers: []string{"dataset", "E5 baseline", "E5 optimized", "Phi baseline", "Phi optimized"},
	}
	for _, d := range fig9Shapes() {
		xb, xo := o.speedupOn(xeon, d.baseShape, d.optShape)
		pb, po := o.speedupOn(phi, d.baseShape, d.optShape)
		norm := func(v float64) string { return speedup(xb / v) }
		t.AddRow(d.name, norm(xb), norm(xo), norm(pb), norm(po))
	}
	return t
}
