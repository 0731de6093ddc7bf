package report

import (
	"fmt"

	"fcma/internal/mic/access"
)

// paperNodes are the node counts of Tables 3–4 and Fig. 8.
var paperNodes = []int{1, 8, 16, 32, 64, 96}

var paperTable3 = map[string][]float64{
	"face-scene": {5101, 694, 385, 242, 124, 85},
	"attention":  {54506, 6813, 3620, 2172, 1099, 741},
}

var paperTable4 = map[string][]float64{
	"face-scene": {12.00, 1.56, 0.82, 0.47, 0.27, 2.21},
	"attention":  {16.50, 2.16, 1.19, 0.76, 0.51, 2.51},
}

// datasetShapes returns the per-dataset task shapes and outer fold counts
// of the offline analysis.
func datasetShapes() []struct {
	name  string
	shape access.Shape
	folds int
} {
	return []struct {
		name  string
		shape access.Shape
		folds int
	}{
		{"face-scene", access.FaceSceneTask(), 18},
		{"attention", access.AttentionTask(), 30},
	}
}

// Table3 regenerates the offline analysis elapsed times as a function of
// node count, using the per-task cost from the machine model and the
// discrete-event scheduler.
func (o *Runner) Table3() *Table {
	t := &Table{
		Title:   "Table 3: offline analysis elapsed time (s) vs coprocessor count (model)",
		Headers: append([]string{"dataset"}, nodeHeaders()...),
	}
	for _, d := range datasetShapes() {
		model := o.scheduleFor(d.shape, d.folds)
		row := []string{d.name}
		for i, n := range paperNodes {
			ms, err := model.Makespan(n)
			if err != nil {
				row = append(row, "err")
				continue
			}
			row = append(row, fmt.Sprintf("%.0f (paper %.0f)", ms.Seconds(), paperTable3[d.name][i]))
		}
		t.AddRow(row...)
	}
	return t
}

// onlineShape shrinks a dataset task shape to the single-subject online
// case: one subject's epochs, k-fold cross-validation.
func onlineShape(s access.Shape) access.Shape {
	s.M = s.E
	s.TrainSamples = s.E - 2
	s.Folds = min(6, s.E/2)
	return s
}

// Table4 regenerates the online voxel-selection times vs node count.
func (o *Runner) Table4() *Table {
	t := &Table{
		Title:   "Table 4: online voxel selection elapsed time (s) vs coprocessor count (model)",
		Headers: append([]string{"dataset"}, nodeHeaders()...),
	}
	for _, d := range datasetShapes() {
		os := onlineShape(d.shape)
		cost := o.taskCost(os)
		tasks := (os.N + os.V - 1) / os.V
		model := scheduleModelFor(tasks, cost)
		row := []string{d.name}
		for i, n := range paperNodes {
			ms, err := model.Makespan(n)
			if err != nil {
				row = append(row, "err")
				continue
			}
			row = append(row, fmt.Sprintf("%.2f (paper %.2f)", ms.Seconds(), paperTable4[d.name][i]))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig8 regenerates the cluster speedup curves.
func (o *Runner) Fig8() *Table {
	paper := map[string]float64{"face-scene": 59.8, "attention": 73.5}
	t := &Table{
		Title:   "Figure 8: speedup vs coprocessor count (model)",
		Headers: append([]string{"dataset"}, nodeHeaders()...),
	}
	for _, d := range datasetShapes() {
		model := o.scheduleFor(d.shape, d.folds)
		sp, err := model.Speedups(paperNodes)
		if err != nil {
			continue
		}
		row := []string{d.name}
		for i, n := range paperNodes {
			cell := fmt.Sprintf("%.1fx", sp[i])
			if n == 96 {
				cell += fmt.Sprintf(" (paper %.1fx)", paper[d.name])
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t
}

func nodeHeaders() []string {
	out := make([]string, len(paperNodes))
	for i, n := range paperNodes {
		out[i] = fmt.Sprintf("%d node(s)", n)
	}
	return out
}
