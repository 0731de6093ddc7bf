package report

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"fcma/internal/mic"
	"fcma/internal/mic/access"
)

// runner is shared across tests: the memo cache makes the suite cheap.
var runner = New(Options{Scale: 0.02})

func TestAllTablesRender(t *testing.T) {
	tables := []interface{ Render() string }{
		runner.Table1(), runner.Table2(), runner.Table3(), runner.Table4(),
		runner.Table5(), runner.Table6(), runner.Table7(), runner.Table8(),
		runner.Fig8(), runner.Fig9(), runner.Fig10(), runner.Fig11(),
	}
	for i, tb := range tables {
		s := tb.Render()
		if len(s) < 50 || !strings.Contains(s, "\n") {
			t.Errorf("table %d renders empty: %q", i, s)
		}
	}
}

// cell extracts the numeric prefix of a table cell like "1457 ms" or
// "5.54x".
func cellNum(t *testing.T, s string) float64 {
	t.Helper()
	fields := strings.Fields(s)
	if len(fields) == 0 {
		t.Fatalf("empty cell %q", s)
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "x"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func TestTable1StageOrdering(t *testing.T) {
	tb := runner.Table1()
	// matmul and LibSVM dominate the baseline; normalization is smaller.
	matmul := cellNum(t, tb.Rows[0][1])
	norm := cellNum(t, tb.Rows[1][1])
	svm := cellNum(t, tb.Rows[2][1])
	if norm > matmul || norm > svm {
		t.Fatalf("normalization (%v ms) should be the cheapest stage (matmul %v, svm %v)", norm, matmul, svm)
	}
	// Vector intensities: matmul low (MKL on tall-skinny), svm ~scalar.
	if vi := cellNum(t, tb.Rows[0][4]); vi > 8 {
		t.Fatalf("baseline matmul VI %v too high", vi)
	}
	if vi := cellNum(t, tb.Rows[2][4]); vi > 3 {
		t.Fatalf("LibSVM VI %v should be scalar-ish", vi)
	}
}

func TestTable3MonotoneDecreasing(t *testing.T) {
	tb := runner.Table3()
	for _, row := range tb.Rows {
		prev := cellNum(t, row[1])
		for i := 2; i < len(row); i++ {
			cur := cellNum(t, row[i])
			if cur >= prev {
				t.Fatalf("%s: time must fall with more nodes (%v -> %v)", row[0], prev, cur)
			}
			prev = cur
		}
	}
	// Attention runs longer than face-scene at every node count.
	for i := 1; i < len(tb.Rows[0]); i++ {
		if cellNum(t, tb.Rows[1][i]) <= cellNum(t, tb.Rows[0][i]) {
			t.Fatalf("attention should be slower than face-scene at column %d", i)
		}
	}
}

func TestTable4SingleNodeSeconds(t *testing.T) {
	tb := runner.Table4()
	for _, row := range tb.Rows {
		t1 := cellNum(t, row[1])
		// Paper: 12.0 / 16.5 s on one node; ours should be single-digit to
		// tens of seconds, certainly not minutes.
		if t1 < 0.1 || t1 > 120 {
			t.Fatalf("%s: 1-node online selection %vs implausible", row[0], t1)
		}
		// The 96-node run must be a few seconds at most (the paper's
		// real-time requirement).
		t96 := cellNum(t, row[len(row)-1])
		if t96 > 5 {
			t.Fatalf("%s: 96-node online selection %vs misses the real-time budget", row[0], t96)
		}
	}
}

func TestTable5OursBeatsMKL(t *testing.T) {
	tb := runner.Table5()
	ourCorr := cellNum(t, tb.Rows[0][3])
	ourSyrk := cellNum(t, tb.Rows[1][3])
	mklCorr := cellNum(t, tb.Rows[2][3])
	mklSyrk := cellNum(t, tb.Rows[3][3])
	if ourCorr <= mklCorr || ourSyrk <= mklSyrk {
		t.Fatalf("our blocking must beat MKL: corr %v vs %v, syrk %v vs %v", ourCorr, mklCorr, ourSyrk, mklSyrk)
	}
	// Paper: the syrk stage reaches ~3.4x higher GFLOPS than the corr
	// stage (fewer writes).
	if ourSyrk <= ourCorr {
		t.Fatalf("syrk (%v) should out-flop corr (%v)", ourSyrk, ourCorr)
	}
}

func TestTable6Contrast(t *testing.T) {
	tb := runner.Table6()
	ourRefs := cellNum(t, tb.Rows[0][1])
	mklRefs := cellNum(t, tb.Rows[1][1])
	if mklRefs < 2*ourRefs {
		t.Fatalf("MKL refs (%v) should far exceed ours (%v)", mklRefs, ourRefs)
	}
	ourVI := cellNum(t, tb.Rows[0][3])
	mklVI := cellNum(t, tb.Rows[1][3])
	if ourVI < 12 || mklVI > 8 {
		t.Fatalf("VI contrast broken: ours %v, MKL %v", ourVI, mklVI)
	}
}

func TestTable7MergedWins(t *testing.T) {
	tb := runner.Table7()
	for col := 1; col <= 3; col++ {
		merged := cellNum(t, tb.Rows[0][col])
		separated := cellNum(t, tb.Rows[1][col])
		if merged >= separated {
			t.Fatalf("column %d: merged (%v) must beat separated (%v)", col, merged, separated)
		}
	}
	// Paper: 24% time reduction; demand at least 10%.
	mt := cellNum(t, tb.Rows[0][1])
	st := cellNum(t, tb.Rows[1][1])
	if (st-mt)/st < 0.10 {
		t.Fatalf("merging saves only %.1f%%", (st-mt)/st*100)
	}
}

func TestTable8Ordering(t *testing.T) {
	tb := runner.Table8()
	lib := cellNum(t, tb.Rows[0][1])
	olib := cellNum(t, tb.Rows[1][1])
	phi := cellNum(t, tb.Rows[2][1])
	if !(lib > olib && olib > phi) {
		t.Fatalf("SVM ordering broken: %v > %v > %v expected", lib, olib, phi)
	}
	// Paper factors: 3.1x and 2.9x; demand at least 1.5x each.
	if lib/olib < 1.5 || olib/phi < 1.5 {
		t.Fatalf("SVM speedup factors too weak: %v, %v", lib/olib, olib/phi)
	}
}

func TestFig8Shape(t *testing.T) {
	tb := runner.Fig8()
	for _, row := range tb.Rows {
		// Speedups increase with nodes.
		prev := 0.0
		for i := 1; i < len(row); i++ {
			sp := cellNum(t, row[i])
			if sp <= prev {
				t.Fatalf("%s: speedup not increasing at column %d", row[0], i)
			}
			prev = sp
		}
		// Near-linear: at 96 nodes, at least 40x; no superlinear nonsense.
		last := cellNum(t, row[len(row)-1])
		if last < 40 || last > 96 {
			t.Fatalf("%s: 96-node speedup %v out of the paper's regime", row[0], last)
		}
	}
	// Attention scales better (paper: 73.5x vs 59.8x).
	if cellNum(t, tb.Rows[1][len(tb.Rows[1])-1]) <= cellNum(t, tb.Rows[0][len(tb.Rows[0])-1]) {
		t.Fatal("attention should scale better than face-scene")
	}
}

func TestFig9Speedups(t *testing.T) {
	tb := runner.Fig9()
	fs := cellNum(t, tb.Rows[0][3])
	at := cellNum(t, tb.Rows[1][3])
	// Paper: 5.24x and 16.39x. Allow a generous band but preserve shape:
	// both > 2x, attention markedly larger.
	if fs < 2 || fs > 20 {
		t.Fatalf("face-scene speedup %v out of band", fs)
	}
	if at < 6 || at > 60 {
		t.Fatalf("attention speedup %v out of band", at)
	}
	if at <= fs {
		t.Fatal("attention must benefit more than face-scene (SVM fraction larger)")
	}
}

func TestFig10SmallerThanFig9(t *testing.T) {
	f9 := runner.Fig9()
	f10 := runner.Fig10()
	for i := range f9.Rows {
		phi := cellNum(t, f9.Rows[i][3])
		xeon := cellNum(t, f10.Rows[i][3])
		if xeon <= 1 {
			t.Fatalf("row %d: Xeon speedup %v — optimizations must still help", i, xeon)
		}
		if xeon >= phi {
			t.Fatalf("row %d: Xeon speedup %v should be below coprocessor's %v", i, xeon, phi)
		}
	}
}

func TestFig11OptimizedPhiWins(t *testing.T) {
	tb := runner.Fig11()
	for _, row := range tb.Rows {
		e5b := cellNum(t, row[1])
		e5o := cellNum(t, row[2])
		phio := cellNum(t, row[4])
		if e5b != 1.0 {
			t.Fatalf("E5 baseline must normalize to 1, got %v", e5b)
		}
		// Paper Fig. 11: the optimized coprocessor beats the optimized
		// processor.
		if phio <= e5o {
			t.Fatalf("%s: optimized Phi (%v) should beat optimized E5 (%v)", row[0], phio, e5o)
		}
	}
}

func TestOnlineShape(t *testing.T) {
	s := onlineShape(access.FaceSceneTask())
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.M != 12 || s.Folds > 6 {
		t.Fatalf("online shape %+v", s)
	}
}

func TestTaskCostPositive(t *testing.T) {
	c := runner.taskCost(access.FaceSceneTask())
	if c <= 0 || c > time.Minute {
		t.Fatalf("task cost %v implausible", c)
	}
}

func TestMemoization(t *testing.T) {
	r := New(Options{Scale: 0.02})
	calls := 0
	key := "test-key"
	for i := 0; i < 3; i++ {
		r.cached(key, func() *mic.Machine {
			calls++
			return mic.NewMachine(mic.XeonPhi5110P())
		})
	}
	if calls != 1 {
		t.Fatalf("cached fn ran %d times", calls)
	}
}

func TestNativeSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("native run is slow")
	}
	tb, err := NativeSpeedup(NativeOptions{Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		sp := cellNum(t, row[3])
		if sp <= 1 {
			t.Fatalf("%s: native optimized must beat native baseline, got %vx", row[0], sp)
		}
	}
}

func TestNativeScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("native run is slow")
	}
	tb, err := NativeScaling(NativeOptions{Scale: 0.01, Workers: []int{1, 2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	last := cellNum(t, tb.Rows[2][2])
	// GOMAXPROCS can exceed the cores the host has: only cores that exist
	// can scale the four workers.
	if cores := min(runtime.GOMAXPROCS(0), runtime.NumCPU()); cores >= 4 {
		if last < 1.2 {
			t.Fatalf("4-worker speedup %v shows no scaling on a %d-way host", last, cores)
		}
	} else if last < 0.5 {
		// Single-core host: demand only that the protocol adds no gross
		// overhead.
		t.Fatalf("4-worker run regressed to %vx on a single-core host", last)
	}
}

// The model-vs-measured ledger (run inside fcma-serve after every job until
// PR 19): per dataset shape, the optimized engine's fused stage and the
// baseline's correlate and normalize stages, each with a model prediction,
// a host measurement and their ratio.
func TestNativeLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("native run is slow")
	}
	tb, err := NativeLedger(NativeOptions{Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]string
	for _, dataset := range []string{"face-scene", "attention"} {
		want = append(want,
			[]string{dataset, "optimized", "fused"},
			[]string{dataset, "baseline", "correlate"}, []string{dataset, "baseline", "normalize"})
	}
	if len(tb.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d:\n%s", len(tb.Rows), len(want), tb.Render())
	}
	for i, row := range tb.Rows {
		if got := strings.Join(row[:3], "/"); got != strings.Join(want[i], "/") {
			t.Errorf("row %d is %s, want %s", i, got, strings.Join(want[i], "/"))
		}
		predicted, err := time.ParseDuration(row[3])
		if err != nil || predicted <= 0 {
			t.Errorf("%v: predicted %q (%v), want a positive duration", row[:3], row[3], err)
		}
		measured, err := time.ParseDuration(row[4])
		if err != nil || measured <= 0 {
			t.Errorf("%v: measured %q (%v), want a positive duration", row[:3], row[4], err)
		}
		if drift := speedup(float64(measured) / float64(predicted)); row[5] != drift {
			t.Errorf("%v: drift %s, want measured/predicted = %s", row[:3], row[5], drift)
		}
	}
}

func TestKNLProjection(t *testing.T) {
	tb := runner.TableKNL()
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// For each dataset: the optimized KNL per-voxel time should beat the
	// optimized KNC time (newer part, higher peak).
	for ds := 0; ds < 2; ds++ {
		kncOpt := cellNum(t, tb.Rows[ds*3+1][3])
		knlOpt := cellNum(t, tb.Rows[ds*3+2][3])
		if knlOpt >= kncOpt {
			t.Fatalf("dataset %d: KNL optimized (%v) should beat KNC (%v)", ds, knlOpt, kncOpt)
		}
	}
}

func TestAblationTable(t *testing.T) {
	tb := runner.TableAblation()
	if len(tb.Rows) != 10 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// The paper's design points should not be clearly dominated: the
	// 4096-column merged block must be within 25% of the best sweep time,
	// and likewise the 96-row syrk block.
	best := func(rows [][]string) (float64, float64) {
		bestT, chosenT := 1e18, 0.0
		for _, r := range rows {
			v := cellNum(t, r[2])
			if v < bestT {
				bestT = v
			}
			if len(r[4]) > 0 && r[4][0] == '<' {
				chosenT = v
			}
		}
		return bestT, chosenT
	}
	mergedBest, mergedChosen := best(tb.Rows[:5])
	if mergedChosen > mergedBest*1.25 {
		t.Fatalf("paper's merged block point %v far from best %v", mergedChosen, mergedBest)
	}
	syrkBest, syrkChosen := best(tb.Rows[5:])
	if syrkChosen > syrkBest*1.25 {
		t.Fatalf("paper's syrk block point %v far from best %v", syrkChosen, syrkBest)
	}
}

func TestMemoryTable(t *testing.T) {
	tb := runner.TableMemory()
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		baseline := cellNum(t, row[2])
		// The memory wall: the baseline holds far fewer voxels than the
		// coprocessor's 240 threads need; the optimized path holds 240+.
		if baseline >= 240 {
			t.Fatalf("%s: baseline capacity %v voxels — no starvation", row[0], baseline)
		}
	}
	// Attention (larger M) fits fewer baseline voxels than face-scene.
	if cellNum(t, tb.Rows[1][2]) >= cellNum(t, tb.Rows[0][2]) {
		t.Fatal("attention should fit fewer baseline voxels than face-scene")
	}
}

func TestMemoryTableMatchesPaperScale(t *testing.T) {
	// Paper §3.3.3: 240 face-scene voxels' correlation vectors ≈ 8.3GB →
	// ~34.6MB per voxel (with overhead); the raw M×N×4 is 29.8MB.
	s := access.FaceSceneTask()
	perVoxel := int64(s.M) * int64(s.N) * 4
	if perVoxel < 29_000_000 || perVoxel > 31_000_000 {
		t.Fatalf("per-voxel correlation data = %d", perVoxel)
	}
}
