package report

import (
	"fmt"

	"fcma/internal/mic"
)

// TableKNL is an extension experiment beyond the paper: §7 expects the
// implementation to migrate to the next-generation Xeon Phi (Knights
// Landing) "with moderate effort". This table projects the optimized and
// baseline single-task times onto the KNL machine model next to the 5110P
// (KNC) and the E5-2670, per dataset.
func (o *Runner) TableKNL() *Table {
	machines := []mic.Config{mic.XeonE5_2670(), mic.XeonPhi5110P(), mic.XeonPhiKNL()}
	t := &Table{
		Title:   "Extension: projected per-voxel task times on the next-generation Xeon Phi (KNL, paper §7)",
		Headers: []string{"dataset", "machine", "baseline", "optimized", "speedup"},
	}
	for _, d := range fig9Shapes() {
		for _, cfg := range machines {
			base, opt := o.speedupOn(cfg, d.baseShape, d.optShape)
			t.AddRow(d.name, cfg.Name,
				fmt.Sprintf("%.1f ms/voxel", base*1e3),
				fmt.Sprintf("%.1f ms/voxel", opt*1e3),
				speedup(base/opt))
		}
	}
	return t
}
