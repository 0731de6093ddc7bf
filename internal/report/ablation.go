package report

import (
	"fmt"

	"fcma/internal/mic"
	"fcma/internal/mic/access"
)

// TableAblation sweeps the two blocking parameters DESIGN.md §5 calls out
// over the machine model, locating the design points the paper chose:
// the merged pipeline's column block (L2 capacity bound above, loop
// overhead bound below) and the syrk staging block (the paper's 96).
func (o *Runner) TableAblation() *Table {
	cfg := mic.XeonPhi5110P()
	s := access.FaceSceneTask()
	t := &Table{
		Title:   "Ablation (model): blocking parameter sweeps on the coprocessor",
		Headers: []string{"parameter", "value", "time", "L2 miss", "note"},
	}

	work := func(sh access.Shape) float64 { return sh.GemmWork() + sh.NormWork() }
	for _, cb := range []int{512, 1024, 4096, 16384, 65536} {
		cb := cb
		m := o.stage(cfg, fmt.Sprintf("ablate-merged-%d", cb), s, work,
			func(mm *mic.Machine, sh access.Shape) { access.StagesMerged(mm, sh, cb) })
		note := ""
		if cb == 4096 {
			note = "<- paper design point (fits 512KB L2)"
		}
		if cb*4*(s.E+1) > cfg.L2Size {
			note = "block exceeds L2"
		}
		t.AddRow("merged column block", fmt.Sprintf("%d", cb),
			ms(m.EstimateTime()), millions(m.L2Misses), note)
	}

	for _, bn := range []int{16, 48, 96, 384, 1536} {
		bn := bn
		m := o.stage(cfg, fmt.Sprintf("ablate-syrk-%d", bn), s, access.Shape.SyrkWork,
			func(mm *mic.Machine, sh access.Shape) {
				access.SyrkTallSkinny(mm, sh.TrainSamples, sh.N, bn)
				mm.Counters.Scale(float64(sh.V))
			})
		note := ""
		if bn == 96 {
			note = "<- paper design point (6x the 16-lane VPU)"
		}
		t.AddRow("syrk staging block", fmt.Sprintf("%d", bn),
			ms(m.EstimateTime()), millions(m.L2Misses), note)
	}
	return t
}
