package report

import (
	"fmt"

	"fcma/internal/fmri"
	"fcma/internal/mic"
	"fcma/internal/mic/access"
)

// Table1 regenerates the baseline instrumentation (paper Table 1): time,
// memory references, L2 misses and vector intensity of the baseline's
// matrix multiplication (MKL gemm+syrk), normalization and LibSVM stages
// on the coprocessor, for the 120-voxel face-scene task.
func (o *Runner) Table1() *Table {
	cfg := mic.XeonPhi5110P()
	s := access.FaceSceneTask()
	p := o.baselinePhases(cfg, s)

	matmul := p.gemm.Counters
	matmul.Add(p.syrk.Counters)
	matmulTime := p.gemm.EstimateTime() + p.syrk.EstimateTime()
	matmulVI := matmul.VectorIntensity()

	t := &Table{
		Title:   "Table 1: instrumentation of the baseline implementation (face-scene, 120-voxel task)",
		Headers: []string{"stage", "time", "#mem refs", "L2 miss", "vec intensity", "paper (time/refs/L2/VI)"},
	}
	t.AddRow("matrix multiplication", ms(matmulTime), billions(matmul.MemRefs),
		millions(matmul.L2Misses), fmt.Sprintf("%.1f", matmulVI),
		"1830 ms / 34.9e9 / 709e6 / 3.6")
	t.AddRow("normalization", ms(p.norm.EstimateTime()), billions(p.norm.MemRefs),
		millions(p.norm.L2Misses), fmt.Sprintf("%.1f", p.norm.VectorIntensity()),
		"766 ms / 6.2e9 / 179e6 / 8.5")
	t.AddRow("LibSVM", ms(p.svm.EstimateTime()), billions(p.svm.MemRefs),
		millions(p.svm.L2Misses), fmt.Sprintf("%.1f", p.svm.VectorIntensity()),
		"3600 ms / 23.0e9 / 7e6 / 1.9")
	return t
}

// Table2 reproduces the dataset specification table.
func (o *Runner) Table2() *Table {
	t := &Table{
		Title:   "Table 2: datasets (synthetic, paper-shaped; see DESIGN.md §2)",
		Headers: []string{"dataset", "voxels", "subjects", "epochs", "epoch length"},
	}
	for _, spec := range []fmri.Spec{fmri.FaceSceneSpec(1), fmri.AttentionSpec(1)} {
		t.AddRow(spec.Name,
			fmt.Sprintf("%d", spec.Voxels),
			fmt.Sprintf("%d", spec.Subjects),
			fmt.Sprintf("%d", spec.Subjects*spec.EpochsPerSubject),
			fmt.Sprintf("%d", spec.EpochLen))
	}
	return t
}

// Table5 regenerates the matrix-multiplication GFLOPS comparison: our
// blocking vs the MKL stand-in, in the correlation and SVM-kernel stages.
func (o *Runner) Table5() *Table {
	cfg := mic.XeonPhi5110P()
	s := access.FaceSceneTask()

	corrOpt := o.stage(cfg, "gemm-tallskinny", s, access.Shape.GemmWork, func(m *mic.Machine, sh access.Shape) {
		access.GemmTallSkinny(m, sh, 4096)
	})
	corrMKL := o.stage(cfg, "gemm-baseline", s, access.Shape.GemmWork, access.GemmBaseline)
	syrkOpt := o.stage(cfg, "syrk-tallskinny", s, access.Shape.SyrkWork, func(m *mic.Machine, sh access.Shape) {
		access.SyrkTallSkinny(m, sh.TrainSamples, sh.N, 96)
		m.Counters.Scale(float64(sh.V))
	})
	syrkMKL := o.stage(cfg, "syrk-baseline", s, access.Shape.SyrkWork, func(m *mic.Machine, sh access.Shape) {
		access.SyrkBaseline(m, sh.TrainSamples, sh.N)
		m.Counters.Scale(float64(sh.V))
	})

	t := &Table{
		Title:   "Table 5: matrix multiplication performance (face-scene task)",
		Headers: []string{"impl", "function", "time", "GFLOPS", "paper (time/GFLOPS)"},
	}
	t.AddRow("our blocking", "correlation computation", ms(corrOpt.EstimateTime()),
		fmt.Sprintf("%.0f", corrOpt.GFLOPS()), "170 ms / 126")
	t.AddRow("our blocking", "SVM kernel computation", ms(syrkOpt.EstimateTime()),
		fmt.Sprintf("%.0f", syrkOpt.GFLOPS()), "400 ms / 430")
	t.AddRow("MKL baseline", "correlation computation", ms(corrMKL.EstimateTime()),
		fmt.Sprintf("%.0f", corrMKL.GFLOPS()), "230 ms / 93")
	t.AddRow("MKL baseline", "SVM kernel computation", ms(syrkMKL.EstimateTime()),
		fmt.Sprintf("%.0f", syrkMKL.GFLOPS()), "1600 ms / 108")
	return t
}

// Table6 regenerates the memory/vectorization comparison of the matrix
// multiplication routines (both stages combined).
func (o *Runner) Table6() *Table {
	cfg := mic.XeonPhi5110P()
	s := access.FaceSceneTask()

	collect := func(name string, gemm func(*mic.Machine, access.Shape), syrk func(*mic.Machine, access.Shape)) mic.Counters {
		g := o.stage(cfg, "gemm-"+name, s, access.Shape.GemmWork, gemm)
		sy := o.stage(cfg, "syrk-"+name, s, access.Shape.SyrkWork, syrk)
		c := g.Counters
		c.Add(sy.Counters)
		return c
	}
	opt := collect("tallskinny",
		func(m *mic.Machine, sh access.Shape) { access.GemmTallSkinny(m, sh, 4096) },
		func(m *mic.Machine, sh access.Shape) {
			access.SyrkTallSkinny(m, sh.TrainSamples, sh.N, 96)
			m.Counters.Scale(float64(sh.V))
		})
	mkl := collect("baseline",
		access.GemmBaseline,
		func(m *mic.Machine, sh access.Shape) {
			access.SyrkBaseline(m, sh.TrainSamples, sh.N)
			m.Counters.Scale(float64(sh.V))
		})

	t := &Table{
		Title:   "Table 6: memory references, L2 misses, vector intensity of the matmul routines",
		Headers: []string{"impl", "#mem refs", "L2 miss", "vec intensity", "paper (refs/L2/VI)"},
	}
	t.AddRow("our blocking", billions(opt.MemRefs), millions(opt.L2Misses),
		fmt.Sprintf("%.1f", opt.VectorIntensity()), "9.97e9 / 121.8e6 / 16")
	t.AddRow("MKL baseline", billions(mkl.MemRefs), millions(mkl.L2Misses),
		fmt.Sprintf("%.1f", mkl.VectorIntensity()), "34.86e9 / 708.9e6 / 3.6")
	return t
}

// Table7 regenerates the merged-vs-separated pipeline-stage comparison.
func (o *Runner) Table7() *Table {
	cfg := mic.XeonPhi5110P()
	s := access.FaceSceneTask()
	work := func(sh access.Shape) float64 { return sh.GemmWork() + sh.NormWork() }
	sep := o.stage(cfg, "stages-separated", s, work, func(m *mic.Machine, sh access.Shape) { access.StagesSeparated(m, sh, 4096) })
	mer := o.stage(cfg, "stages-merged-t7", s, work, func(m *mic.Machine, sh access.Shape) { access.StagesMerged(m, sh, 4096) })

	t := &Table{
		Title:   "Table 7: retaining L2 cache contents across stages 1+2 (merged vs separated)",
		Headers: []string{"method", "time", "#mem refs", "L2 miss", "paper (time/refs/L2)"},
	}
	t.AddRow("merged", ms(mer.EstimateTime()), billions(mer.MemRefs),
		millions(mer.L2Misses), "320 ms / 1.93e9 / 67.5e6")
	t.AddRow("separated", ms(sep.EstimateTime()), billions(sep.MemRefs),
		millions(sep.L2Misses), "420 ms / 4.35e9 / 188.1e6")
	return t
}

// Table8 regenerates the SVM cross-validation comparison.
func (o *Runner) Table8() *Table {
	cfg := mic.XeonPhi5110P()
	s := access.FaceSceneTask()
	lib := o.svmStage(cfg, "libsvm-t8", s, s.V, access.SVMLibSVM)
	olib := o.svmStage(cfg, "optlibsvm-t8", s, s.V, access.SVMOptimized)
	phi := o.svmStage(cfg, "phisvm-t8", s, s.V, access.SVMPhi)

	t := &Table{
		Title:   "Table 8: SVM cross-validation performance (face-scene task)",
		Headers: []string{"solver", "time", "vec intensity", "paper (time/VI)"},
	}
	t.AddRow("LibSVM", ms(lib.EstimateTime()), fmt.Sprintf("%.1f", lib.VectorIntensity()), "3600 ms / 1.9")
	t.AddRow("Optimized LibSVM", ms(olib.EstimateTime()), fmt.Sprintf("%.1f", olib.VectorIntensity()), "1150 ms / 12.4")
	t.AddRow("PhiSVM", ms(phi.EstimateTime()), fmt.Sprintf("%.1f", phi.VectorIntensity()), "390 ms / 9.8")
	return t
}
