package access

import (
	"testing"

	"fcma/internal/mic"
)

// smallShape is a CI-budget task shape with the paper's time structure.
func smallShape() Shape {
	return Shape{V: 8, T: 12, M: 24, E: 12, N: 2048, TrainSamples: 12, Folds: 2}
}

// run executes a driver on a fresh machine of the given configuration and
// returns the machine with its counters populated.
func run(cfg mic.Config, driver func(*mic.Machine)) *mic.Machine {
	m := mic.NewMachine(cfg)
	driver(m)
	return m
}

func TestShapeValidate(t *testing.T) {
	if err := FaceSceneTask().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := AttentionTask().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := smallShape().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := smallShape()
	bad.E = 7 // M=24 not divisible
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid shape accepted")
	}
	bad = smallShape()
	bad.V = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero voxels accepted")
	}
}

func TestFaceSceneTaskMatchesPaper(t *testing.T) {
	s := FaceSceneTask()
	// §5.4.2: stage-1 gemm does 21.443 billion flops…
	if w := s.GemmWork(); w < 21.4e9 || w > 21.5e9 {
		t.Fatalf("gemm work = %g, paper says 21.443e9", w)
	}
	// …and the SVM syrk 172.14 billion flops for 120 voxels.
	if w := s.SyrkWork(); w < 171e9 || w > 174e9 {
		t.Fatalf("syrk work = %g, paper says 172.14e9", w)
	}
}

func TestScaledShape(t *testing.T) {
	s := Scaled(FaceSceneTask(), 0.05)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.N >= 34470 || s.V >= 120 {
		t.Fatalf("not scaled: %+v", s)
	}
	if s.T != 12 || s.M != 216 {
		t.Fatal("time structure must be preserved")
	}
	if full := Scaled(FaceSceneTask(), 1.0); full != FaceSceneTask() {
		t.Fatal("scale 1 must be identity")
	}
}

func TestGemmVectorIntensityContrast(t *testing.T) {
	cfg := mic.XeonPhi5110P()
	s := smallShape()
	opt := run(cfg, func(m *mic.Machine) { GemmTallSkinny(m, s, 1024) })
	base := run(cfg, func(m *mic.Machine) { GemmBaseline(m, s) })
	if vi := opt.VectorIntensity(); vi < 12 {
		t.Fatalf("tall-skinny VI = %v, want near 16", vi)
	}
	if vi := base.VectorIntensity(); vi > 8 {
		t.Fatalf("baseline VI = %v, want well below the optimized kernel", vi)
	}
	if opt.VectorIntensity() < 2*base.VectorIntensity() {
		t.Fatalf("VI contrast too weak: %v vs %v", opt.VectorIntensity(), base.VectorIntensity())
	}
}

func TestGemmMemoryReferenceContrast(t *testing.T) {
	// Table 6: MKL makes ~3.5x more references and ~5.8x more L2 misses.
	cfg := mic.XeonPhi5110P()
	s := smallShape()
	opt := run(cfg, func(m *mic.Machine) { GemmTallSkinny(m, s, 1024) })
	base := run(cfg, func(m *mic.Machine) { GemmBaseline(m, s) })
	if base.MemRefs < 2*opt.MemRefs {
		t.Fatalf("refs: baseline %d vs optimized %d — contrast too weak", base.MemRefs, opt.MemRefs)
	}
	if base.L2Misses <= opt.L2Misses {
		t.Fatalf("L2 misses: baseline %d vs optimized %d", base.L2Misses, opt.L2Misses)
	}
}

func TestGemmFlopsMatchShape(t *testing.T) {
	cfg := mic.XeonPhi5110P()
	s := smallShape()
	opt := run(cfg, func(m *mic.Machine) { GemmTallSkinny(m, s, 1024) })
	want := s.GemmWork()
	got := float64(opt.Flops)
	if got < 0.99*want || got > 1.05*want {
		t.Fatalf("traced flops %g vs analytic %g", got, want)
	}
}

func TestSyrkContrast(t *testing.T) {
	cfg := mic.XeonPhi5110P()
	opt := run(cfg, func(m *mic.Machine) { SyrkTallSkinny(m, 48, 4096, 96) })
	base := run(cfg, func(m *mic.Machine) { SyrkBaseline(m, 48, 4096) })
	if opt.VectorIntensity() < 12 {
		t.Fatalf("syrk tall-skinny VI = %v", opt.VectorIntensity())
	}
	if base.MemRefs <= opt.MemRefs {
		t.Fatalf("syrk refs: baseline %d vs optimized %d", base.MemRefs, opt.MemRefs)
	}
	// Table 5: optimized syrk reaches ~4x MKL's GFLOPS.
	if opt.GFLOPS() <= base.GFLOPS() {
		t.Fatalf("syrk GFLOPS: optimized %v vs baseline %v", opt.GFLOPS(), base.GFLOPS())
	}
}

func TestMergedVsSeparated(t *testing.T) {
	// Table 7: merging stages reduces references (~2.3x) and misses
	// (~2.8x), cutting elapsed time.
	cfg := mic.XeonPhi5110P()
	s := smallShape()
	sep := run(cfg, func(m *mic.Machine) { StagesSeparated(m, s, 1024) })
	mer := run(cfg, func(m *mic.Machine) { StagesMerged(m, s, 1024) })
	if mer.MemRefs >= sep.MemRefs {
		t.Fatalf("refs: merged %d vs separated %d", mer.MemRefs, sep.MemRefs)
	}
	if mer.L2Misses >= sep.L2Misses {
		t.Fatalf("L2 misses: merged %d vs separated %d", mer.L2Misses, sep.L2Misses)
	}
	if mer.EstimateTime() >= sep.EstimateTime() {
		t.Fatalf("time: merged %v vs separated %v", mer.EstimateTime(), sep.EstimateTime())
	}
}

func TestSVMTraceOrdering(t *testing.T) {
	// Table 8: LibSVM 3600ms > optimized LibSVM 1150ms > PhiSVM 390ms.
	cfg := mic.XeonPhi5110P()
	// SVM behaviour depends on the training-set size; use the paper's 204
	// samples with a small voxel count to keep the trace affordable.
	s := smallShape()
	s.M, s.E, s.TrainSamples, s.Folds = 216, 12, 204, 4
	opt := SVMOptions{Voxels: 2}
	lib := run(cfg, func(m *mic.Machine) { SVMLibSVM(m, s, opt) })
	olib := run(cfg, func(m *mic.Machine) { SVMOptimized(m, s, opt) })
	phi := run(cfg, func(m *mic.Machine) { SVMPhi(m, s, opt) })
	tl, to, tp := lib.EstimateTime(), olib.EstimateTime(), phi.EstimateTime()
	if !(tl > to && to > tp) {
		t.Fatalf("time ordering broken: libsvm %v, optimized %v, phi %v", tl, to, tp)
	}
	if vi := lib.VectorIntensity(); vi > 3 {
		t.Fatalf("libsvm VI = %v, want scalar-ish (paper: 1.9)", vi)
	}
	if vi := olib.VectorIntensity(); vi < 8 {
		t.Fatalf("optimized VI = %v, want vectorized (paper: 12.4)", vi)
	}
	if vi := phi.VectorIntensity(); vi < 6 {
		t.Fatalf("phi VI = %v (paper: 9.8)", vi)
	}
	if phi.VectorIntensity() >= olib.VectorIntensity() {
		t.Fatalf("phi VI (%v) should sit below optimized-LibSVM VI (%v), as in Table 8",
			phi.VectorIntensity(), olib.VectorIntensity())
	}
}

func TestSVMThreadStarvation(t *testing.T) {
	cfg := mic.XeonPhi5110P()
	s := smallShape()
	lib := run(cfg, func(m *mic.Machine) { SVMLibSVM(m, s, SVMOptions{}) })
	if lib.ActiveThreads != s.V {
		t.Fatalf("libsvm trace active threads = %d, want %d (one thread per voxel)", lib.ActiveThreads, s.V)
	}
	// The optimized pipeline accumulates ≥240 voxels' kernels before the
	// CV stage (§4.4); ActiveVoxels models that.
	phi := run(cfg, func(m *mic.Machine) { SVMPhi(m, s, SVMOptions{ActiveVoxels: 240}) })
	if phi.ActiveThreads != cfg.Threads() {
		t.Fatalf("phi trace active threads = %d, want %d", phi.ActiveThreads, cfg.Threads())
	}
}

func TestRunScaledExtrapolates(t *testing.T) {
	cfg := mic.XeonPhi5110P()
	full := FaceSceneTask()
	m := RunScaled(cfg, full, 0.02, Shape.GemmWork, func(mm *mic.Machine, s Shape) {
		GemmTallSkinny(mm, s, 4096)
	})
	// Extrapolated flops must be near the full task's analytic count.
	got := float64(m.Flops)
	want := full.GemmWork()
	if got < 0.9*want || got > 1.2*want {
		t.Fatalf("extrapolated flops %g vs %g", got, want)
	}
}

func TestXeonContrastWeaker(t *testing.T) {
	// §5.5: the optimized/baseline gap is real but smaller on the E5-2670
	// (bigger cache per thread, narrower vectors).
	s := smallShape()
	speedup := func(cfg mic.Config) float64 {
		opt := run(cfg, func(m *mic.Machine) { GemmTallSkinny(m, s, 1024) })
		base := run(cfg, func(m *mic.Machine) { GemmBaseline(m, s) })
		return float64(base.EstimateTime()) / float64(opt.EstimateTime())
	}
	phi := speedup(mic.XeonPhi5110P())
	xeon := speedup(mic.XeonE5_2670())
	if phi <= 1 || xeon <= 1 {
		t.Fatalf("optimization must help on both machines: phi %v, xeon %v", phi, xeon)
	}
	if xeon >= phi {
		t.Fatalf("speedup on Xeon (%v) should be smaller than on Phi (%v)", xeon, phi)
	}
}

// The model is deterministic: two fresh machines driven through the same
// access driver report identical counters, cache statistics and
// EstimateTime. Tables 1 and 5–8 are regenerated from these numbers, so a
// wall-clock read or a globally seeded random draw anywhere in the cache
// or a driver would make them differ run to run.
func TestDriversAreDeterministic(t *testing.T) {
	s := smallShape()
	s.V, s.N = 4, 1024 // B is still 48 KB, past the 32 KB L1
	sv := s
	sv.M, sv.E, sv.TrainSamples, sv.Folds = 216, 12, 204, 1 // K is 182 KB
	svm := SVMOptions{Voxels: 1}
	for _, d := range []struct {
		name   string
		driver func(*mic.Machine)
	}{
		{"GemmBaseline", func(m *mic.Machine) { GemmBaseline(m, s) }},
		{"GemmTallSkinny", func(m *mic.Machine) { GemmTallSkinny(m, s, 1024) }},
		{"SyrkBaseline", func(m *mic.Machine) { SyrkBaseline(m, 48, s.N) }},
		{"SyrkTallSkinny", func(m *mic.Machine) { SyrkTallSkinny(m, 48, s.N, 96) }},
		{"NormalizeBaseline", func(m *mic.Machine) { NormalizeBaseline(m, s) }},
		{"StagesSeparated", func(m *mic.Machine) { StagesSeparated(m, s, 1024) }},
		{"StagesMerged", func(m *mic.Machine) { StagesMerged(m, s, 1024) }},
		{"SVMLibSVM", func(m *mic.Machine) { SVMLibSVM(m, sv, svm) }},
		{"SVMOptimized", func(m *mic.Machine) { SVMOptimized(m, sv, svm) }},
		{"SVMPhi", func(m *mic.Machine) { SVMPhi(m, sv, svm) }},
	} {
		for _, cfg := range []mic.Config{mic.XeonPhi5110P(), mic.XeonE5_2670()} {
			a, b := run(cfg, d.driver), run(cfg, d.driver)
			if a.Counters != b.Counters || a.ActiveThreads != b.ActiveThreads {
				t.Errorf("%s on %s: counters differ between runs:\n%+v\n%+v", d.name, cfg.Name, a.Counters, b.Counters)
			}
			for _, c := range [][2]*mic.Cache{{a.L1, b.L1}, {a.L2, b.L2}} {
				if c[0].Hits != c[1].Hits || c[0].Misses != c[1].Misses {
					t.Errorf("%s on %s: cache hits/misses differ between runs: %d/%d vs %d/%d",
						d.name, cfg.Name, c[0].Hits, c[0].Misses, c[1].Hits, c[1].Misses)
				}
			}
			if ta, tb := a.EstimateTime(), b.EstimateTime(); ta != tb {
				t.Errorf("%s on %s: EstimateTime %v vs %v", d.name, cfg.Name, ta, tb)
			}
		}
	}
}

// The vector load and store of every traced kernel allocate nothing once
// the lines they touch have been seen.
func TestVectorTraceAllocsZero(t *testing.T) {
	m := mic.NewMachine(mic.XeonPhi5110P())
	base := m.Alloc(1 << 12)
	trace := func() {
		for off := uint64(0); off < 1<<12; off += 60 { // aligned and unaligned
			loadVec(m, base+off, 16)
			storeVec(m, base+off, 16)
		}
	}
	trace() // every line enters the machine's seen set
	if n := testing.AllocsPerRun(20, trace); n != 0 {
		t.Fatalf("warm vector loads and stores allocate %v per run, want 0", n)
	}
}
