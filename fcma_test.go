package fcma

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"fcma/internal/fmri"
	"fcma/internal/norm"
	"fcma/internal/ref"
	"fcma/internal/tensor"
)

func testSpec() Spec {
	return Spec{
		Name:             "api-test",
		Voxels:           40,
		Subjects:         4,
		EpochsPerSubject: 8,
		EpochLen:         12,
		RestLen:          3,
		SignalVoxels:     10,
		Coupling:         0.85,
		Seed:             11,
	}
}

func mustGenerate(t testing.TB, s Spec) *Data {
	t.Helper()
	d, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateAccessors(t *testing.T) {
	d := mustGenerate(t, testSpec())
	if d.Name() != "api-test" || d.Voxels() != 40 || d.Subjects() != 4 || d.Epochs() != 32 {
		t.Fatalf("accessors: %s %d %d %d", d.Name(), d.Voxels(), d.Subjects(), d.Epochs())
	}
	if len(d.SignalVoxels()) != 10 {
		t.Fatalf("signal voxels: %d", len(d.SignalVoxels()))
	}
}

func TestGenerateInvalidSpec(t *testing.T) {
	s := testSpec()
	s.Voxels = 0
	if _, err := Generate(s); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestPaperShapedDatasets(t *testing.T) {
	fs, err := FaceSceneShaped(0.01)
	if err != nil {
		t.Fatal(err)
	}
	at, err := AttentionShaped(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Name() != "face-scene" || at.Name() != "attention" {
		t.Fatalf("names: %q %q", fs.Name(), at.Name())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := mustGenerate(t, testSpec())
	var data, epochs bytes.Buffer
	if err := d.Save(&data, &epochs); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&data, &epochs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Voxels() != d.Voxels() || got.Epochs() != d.Epochs() || got.Subjects() != d.Subjects() {
		t.Fatal("round trip metadata mismatch")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("junk")), bytes.NewReader(nil)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestSelectVoxelsRanksSignal(t *testing.T) {
	d := mustGenerate(t, testSpec())
	scores, err := SelectVoxels(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != d.Voxels() {
		t.Fatalf("scores = %d", len(scores))
	}
	// Sorted descending.
	for i := 1; i < len(scores); i++ {
		if scores[i].Accuracy > scores[i-1].Accuracy {
			t.Fatal("scores not sorted")
		}
	}
	planted := map[int]bool{}
	for _, v := range d.SignalVoxels() {
		planted[v] = true
	}
	hits := 0
	for _, s := range scores[:10] {
		if planted[s.Voxel] {
			hits++
		}
	}
	if hits < 6 {
		t.Fatalf("only %d of top 10 are planted voxels", hits)
	}
}

func TestOfflineAnalysis(t *testing.T) {
	d := mustGenerate(t, testSpec())
	res, err := OfflineAnalysis(d, Config{TopK: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Folds) != 4 {
		t.Fatalf("folds = %d", len(res.Folds))
	}
	for _, f := range res.Folds {
		if len(f.Selected) != 8 {
			t.Fatalf("fold %d selected %d", f.LeftOutSubject, len(f.Selected))
		}
		if f.TestAccuracy < 0 || f.TestAccuracy > 1 {
			t.Fatalf("accuracy %v", f.TestAccuracy)
		}
	}
	// With strong planted coupling the held-out classification should beat
	// chance clearly.
	if res.MeanAccuracy() < 0.7 {
		t.Fatalf("mean held-out accuracy %v too low", res.MeanAccuracy())
	}
	if len(res.ReliableVoxels) == 0 {
		t.Fatal("no reliable voxels across folds")
	}
	planted := map[int]bool{}
	for _, v := range d.SignalVoxels() {
		planted[v] = true
	}
	for _, v := range res.ReliableVoxels {
		if !planted[v] {
			t.Logf("note: non-planted reliable voxel %d", v)
		}
	}
}

func TestOfflineAnalysisNeedsSubjects(t *testing.T) {
	s := testSpec()
	s.Subjects = 2
	d := mustGenerate(t, s)
	if _, err := OfflineAnalysis(d, Config{}); err == nil {
		t.Fatal("2 subjects accepted")
	}
}

func TestOnlineAnalysis(t *testing.T) {
	s := testSpec()
	s.Subjects = 1
	s.EpochsPerSubject = 16
	d := mustGenerate(t, s)
	res, err := OnlineAnalysis(d, Config{TopK: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 6 {
		t.Fatalf("selected = %d", len(res.Selected))
	}
	if res.Classifier == nil || len(res.Classifier.Voxels) != 6 {
		t.Fatal("classifier missing")
	}
	// The classifier should label its own training epochs well.
	correct := 0
	for e := 0; e < d.Epochs(); e++ {
		// Labels alternate by construction.
		if pred, _ := res.Classifier.Predict(d, e); pred == e%2 {
			correct++
		}
	}
	if correct*4 < d.Epochs()*3 {
		t.Fatalf("training accuracy %d/%d too low", correct, d.Epochs())
	}
}

func TestOnlineAnalysisRejectsMultiSubject(t *testing.T) {
	d := mustGenerate(t, testSpec())
	if _, err := OnlineAnalysis(d, Config{}); err == nil {
		t.Fatal("multi-subject accepted")
	}
}

func TestOnlineClassifierGeneralizes(t *testing.T) {
	// Train online on one subject, test on a fresh subject generated with
	// the same planted structure (different seed portion of the stream).
	s := testSpec()
	s.Subjects = 2
	s.EpochsPerSubject = 16
	d := mustGenerate(t, s)
	trainSubj, err := d.Subject(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := OnlineAnalysis(trainSubj, Config{TopK: 6})
	if err != nil {
		t.Fatal(err)
	}
	testSubj, err := d.Subject(1)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for e := 0; e < testSubj.Epochs(); e++ {
		if pred, _ := res.Classifier.Predict(testSubj, e); pred == e%2 {
			correct++
		}
	}
	if correct*3 < testSubj.Epochs()*2 {
		t.Fatalf("cross-subject accuracy %d/%d too low", correct, testSubj.Epochs())
	}
}

// The classifier's features are pinned bit for bit to the independent
// float64 reference (internal/ref): feature (i, j) of a window is
// norm.FisherZ of the float32-rounded Pearson correlation of rows i and j,
// and 0 for a row that is constant, empty or holds a non-finite sample.
// The classifier's two entry points, an epoch of a dataset and a raw
// window, agree exactly.
func TestPairFeaturesMatchPearson(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	inf := float32(math.Inf(1))
	for _, n := range []int{12, 18, 1} {
		for trial := 0; trial < 20; trial++ {
			k := 7 + rng.Intn(6)
			rows := make([][]float32, k)
			for i := range rows {
				rows[i] = make([]float32, n)
				for t := range rows[i] {
					rows[i][t] = rng.Float32()*2 - 1
				}
			}
			// Degenerate rows, each planted in a random slot: constant, a
			// NaN, +Inf, -Inf, all zero.
			for _, fill := range []func(r []float32){
				func(r []float32) {
					for t := range r {
						r[t] = 0.25
					}
				},
				func(r []float32) { r[rng.Intn(n)] = float32(math.NaN()) },
				func(r []float32) { r[rng.Intn(n)] = inf },
				func(r []float32) { r[rng.Intn(n)] = -inf },
				func(r []float32) { clear(r) },
			} {
				fill(rows[rng.Intn(k)])
			}
			got := pairFeaturesFromRows(nil, rows)
			reused := pairFeaturesFromRows(make([]float32, 3, len(got)), rows)
			window := &fmri.Dataset{Data: tensor.NewMatrix(k, n), Epochs: []fmri.Epoch{{Len: n}}}
			for i, r := range rows {
				copy(window.Data.Row(i), r)
			}
			f := 0
			for i := 0; i < k; i++ {
				R := ref.Voxel(window, i).R[0]
				for j := i + 1; j < k; j++ {
					var want float32 // ref's r is NaN for a non-finite row
					if !math.IsNaN(R[j]) {
						want = norm.FisherZ(float32(R[j]))
					}
					if math.Float32bits(got[f]) != math.Float32bits(want) || math.Float32bits(reused[f]) != math.Float32bits(want) {
						t.Fatalf("n=%d rows %d,%d: feature %g / %g, want %g", n, i, j, got[f], reused[f], want)
					}
					f++
				}
			}
			if f != len(got) || f != len(reused) {
				t.Fatalf("n=%d k=%d: %d and %d features, want %d", n, k, len(got), len(reused), f)
			}
		}
	}

	s := testSpec()
	s.Subjects = 1
	s.EpochsPerSubject = 16
	d := mustGenerate(t, s)
	res, err := OnlineAnalysis(d, Config{TopK: 6})
	if err != nil {
		t.Fatal(err)
	}
	for e, ep := range d.ds.Epochs {
		wantLabel, want := res.Classifier.Predict(d, e)
		label, got := res.Classifier.ClassifyWindow(d.ds.Data.View(0, ep.Start, d.Voxels(), ep.Len))
		if label != wantLabel || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("epoch %d: ClassifyWindow (%d, %g), Decide (%d, %g)", e, label, got, wantLabel, want)
		}
	}
}

// The classifier's feature rows are built in parallel, each by one
// goroutine, so the trained classifier — feature rows, coefficients, rho —
// is the same at Workers 1 and 2 to the bit, over one voxel set with
// enough epochs for both workers to take rows.
func TestClassifierIdenticalAcrossWorkers(t *testing.T) {
	s := testSpec()
	s.Subjects = 1
	s.EpochsPerSubject = 16
	d := mustGenerate(t, s)
	voxels := []int{0, 3, 5, 9, 12, 17, 20}
	all := make([]int, d.Epochs())
	for i := range all {
		all[i] = i
	}
	var want *Classifier
	for _, workers := range []int{1, 2} {
		clf, err := trainClassifier(t.Context(), d, voxels, all, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = clf
			continue
		}
		if !clf.feats.Equal(want.feats) || len(clf.coef) != len(want.coef) || math.Float64bits(clf.rho) != math.Float64bits(want.rho) {
			t.Fatalf("Workers=%d: classifier differs from Workers=1's (%d / %d support vectors, rho %g / %g)",
				workers, len(clf.coef), len(want.coef), clf.rho, want.rho)
		}
		for i, c := range clf.coef {
			if math.Float64bits(c) != math.Float64bits(want.coef[i]) {
				t.Fatalf("Workers=%d: coefficient %d is %g, Workers=1 gives %g", workers, i, c, want.coef[i])
			}
		}
	}
}

func TestSubjectExtraction(t *testing.T) {
	d := mustGenerate(t, testSpec())
	s0, err := d.Subject(0)
	if err != nil {
		t.Fatal(err)
	}
	if s0.Subjects() != 1 || s0.Epochs() != 8 {
		t.Fatalf("subject extract: %d subjects, %d epochs", s0.Subjects(), s0.Epochs())
	}
	if _, err := d.Subject(9); err == nil {
		t.Fatal("bad subject accepted")
	}
}

// SVMCost reaches the stage-3 solver of voxel selection: the default
// spelled out (C = 1) changes nothing, a far-from-default box constraint
// changes the cross-validated accuracies.
func TestSVMCostReachesVoxelSelection(t *testing.T) {
	d := mustGenerate(t, testSpec())
	sel := func(cost float64) []VoxelScore {
		scores, err := SelectVoxels(d, Config{SVMCost: cost})
		if err != nil {
			t.Fatal(err)
		}
		return scores
	}
	def, one, tiny := sel(0), sel(1), sel(1e-4)
	differs := false
	for i := range def {
		if one[i] != def[i] {
			t.Fatalf("rank %d: SVMCost 1 scores %+v, default %+v", i, one[i], def[i])
		}
		differs = differs || tiny[i] != def[i]
	}
	if !differs {
		t.Fatal("SVMCost 1e-4 scored every voxel exactly as the default: the cost never reached stage 3")
	}
}

func TestConfigTopKDefault(t *testing.T) {
	if k := (Config{}).topK(40); k != 4 {
		t.Fatalf("topK(40) = %d", k)
	}
	if k := (Config{}).topK(5000); k != 100 {
		t.Fatalf("topK(5000) = %d", k)
	}
	if k := (Config{}).topK(3); k != 1 {
		t.Fatalf("topK(3) = %d", k)
	}
	if k := (Config{TopK: 7}).topK(40); k != 7 {
		t.Fatalf("explicit topK = %d", k)
	}
}

func TestSelectVoxelsByActivityBlindToConnectivity(t *testing.T) {
	d := mustGenerate(t, testSpec())
	act, err := SelectVoxelsByActivity(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(act) != d.Voxels() {
		t.Fatalf("scores = %d", len(act))
	}
	planted := map[int]bool{}
	for _, v := range d.SignalVoxels() {
		planted[v] = true
	}
	// Activity MVPA should NOT concentrate planted voxels at the top the
	// way FCMA does.
	hits := 0
	for _, s := range act[:10] {
		if planted[s.Voxel] {
			hits++
		}
	}
	if hits > 5 {
		t.Fatalf("activity MVPA found %d of top 10 planted connectivity voxels — should be near chance", hits)
	}
}

func TestFindROIsRecoversBlobs(t *testing.T) {
	s := testSpec()
	s.Voxels = 216
	s.SignalVoxels = 24
	s.SignalBlobs = 2
	d := mustGenerate(t, s)
	scores, err := SelectVoxels(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	top := make([]int, 0, 24)
	for _, sc := range scores[:24] {
		top = append(top, sc.Voxel)
	}
	rois, err := FindROIs(d, top, scores, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rois) < 2 {
		t.Fatalf("want >=2 regions, got %d", len(rois))
	}
	// The two largest regions should be mostly planted voxels.
	planted := map[int]bool{}
	for _, v := range d.SignalVoxels() {
		planted[v] = true
	}
	for _, r := range rois[:2] {
		hit := 0
		for _, v := range r.Voxels {
			if planted[v] {
				hit++
			}
		}
		if hit*3 < r.Size()*2 {
			t.Fatalf("region of %d voxels has only %d planted", r.Size(), hit)
		}
	}
}

func TestFindROIsNeedsGeometry(t *testing.T) {
	d := mustGenerate(t, testSpec())
	d.ds.Dims = [3]int{}
	if _, err := FindROIs(d, []int{0, 1}, nil, 1); err == nil {
		t.Fatal("geometry-less dataset accepted")
	}
}

func TestGridExposed(t *testing.T) {
	d := mustGenerate(t, testSpec())
	g := d.Grid()
	if g[0]*g[1]*g[2] < d.Voxels() {
		t.Fatalf("grid %v too small for %d voxels", g, d.Voxels())
	}
}

func TestNIfTIRoundTripThroughFacade(t *testing.T) {
	s := testSpec()
	d := mustGenerate(t, s)
	var vol, eps bytes.Buffer
	if err := d.SaveNIfTI(&vol, &eps); err != nil {
		t.Fatal(err)
	}
	got, err := LoadNIfTI(&vol, nil, &eps, "round-trip", d.Subjects())
	if err != nil {
		t.Fatal(err)
	}
	if got.Voxels() != d.Voxels() || got.Epochs() != d.Epochs() {
		t.Fatalf("round trip: %d voxels, %d epochs", got.Voxels(), got.Epochs())
	}
	// Analyses must work on NIfTI-loaded data and agree with the source.
	a, err := SelectVoxels(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SelectVoxels(got, Config{})
	if err != nil {
		t.Fatal(err)
	}
	topA := map[int]bool{}
	for _, sc := range a[:8] {
		topA[sc.Voxel] = true
	}
	agree := 0
	for _, sc := range b[:8] {
		// Voxel ids can shift under masking; compare via grid position.
		if topA[sc.Voxel] {
			agree++
		}
	}
	if agree < 6 {
		t.Fatalf("NIfTI-loaded analysis agrees on only %d of 8", agree)
	}
}

func TestAccuracyMapWrites(t *testing.T) {
	d := mustGenerate(t, testSpec())
	scores, err := SelectVoxels(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := AccuracyMap(d, scores, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 352 {
		t.Fatalf("overlay too small: %d bytes", buf.Len())
	}
}

func TestRunClosedLoop(t *testing.T) {
	s := testSpec()
	s.Subjects = 1
	s.EpochsPerSubject = 12
	d := mustGenerate(t, s)
	res, err := OnlineAnalysis(d, Config{TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	preds, errc := RunClosedLoop(d, res.Classifier, 0)
	correct, n := 0, 0
	for p := range preds {
		if p.Label == p.EpochIndex%2 {
			correct++
		}
		n++
	}
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if n != d.Epochs() {
		t.Fatalf("loop classified %d of %d epochs", n, d.Epochs())
	}
	if correct*4 < n*3 {
		t.Fatalf("closed-loop accuracy %d/%d too low", correct, n)
	}
}

func TestScoresCSVRoundTrip(t *testing.T) {
	scores := []VoxelScore{{Voxel: 12, Accuracy: 0.875}, {Voxel: 3, Accuracy: 0.5}, {Voxel: 991, Accuracy: 1}}
	var buf bytes.Buffer
	if err := WriteScores(&buf, scores); err != nil {
		t.Fatal(err)
	}
	got, err := ReadScores(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("rows = %d", len(got))
	}
	for i := range scores {
		if got[i].Voxel != scores[i].Voxel || got[i].Accuracy != scores[i].Accuracy {
			t.Fatalf("row %d: %+v vs %+v", i, got[i], scores[i])
		}
	}
}

func TestReadScoresRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",
		"voxel,accuracy\n",
		"1\n",
		"a,b\n",
		"1,1.5\n",
		"1,x\n",
	} {
		if _, err := ReadScores(bytes.NewReader([]byte(bad))); err == nil {
			t.Errorf("input %q accepted", bad)
		}
	}
}

func TestSelectVoxelsDistributedMatchesLocal(t *testing.T) {
	d := mustGenerate(t, testSpec())
	local, err := SelectVoxels(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := SelectVoxelsDistributed(d, Config{}, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) != len(local) {
		t.Fatalf("lengths %d vs %d", len(dist), len(local))
	}
	for i := range dist {
		if dist[i] != local[i] {
			t.Fatalf("rank %d: %+v vs %+v", i, dist[i], local[i])
		}
	}
}

func TestPermutationTestSignalIsSignificant(t *testing.T) {
	d := mustGenerate(t, testSpec())
	scores, err := SelectVoxels(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	top := make([]int, 6)
	for i := range top {
		top[i] = scores[i].Voxel
	}
	res, err := PermutationTest(d, top, Config{}, 19, 123)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Null) != 19 {
		t.Fatalf("null draws = %d", len(res.Null))
	}
	if res.Observed < 0.8 {
		t.Fatalf("observed accuracy %v too low for planted signal", res.Observed)
	}
	// Best achievable p with 19 permutations is 1/20.
	if res.P > 0.1 {
		t.Fatalf("p = %v for strongly planted signal", res.P)
	}
}

func TestPermutationTestNoiseIsNot(t *testing.T) {
	s := testSpec()
	s.SignalVoxels = 0
	s.Coupling = 0.5
	d := mustGenerate(t, s)
	res, err := PermutationTest(d, []int{1, 5, 9, 13}, Config{}, 19, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.05 {
		t.Fatalf("p = %v on pure noise (observed %v)", res.P, res.Observed)
	}
}

func TestPermutationTestDeterministic(t *testing.T) {
	d := mustGenerate(t, testSpec())
	a, err := PermutationTest(d, []int{0, 4, 8}, Config{}, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PermutationTest(d, []int{0, 4, 8}, Config{}, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.P != b.P || a.Observed != b.Observed {
		t.Fatal("same seed must reproduce")
	}
	for i := range a.Null {
		if a.Null[i] != b.Null[i] {
			t.Fatal("null distribution not deterministic")
		}
	}
}

func TestPermutationTestValidation(t *testing.T) {
	d := mustGenerate(t, testSpec())
	if _, err := PermutationTest(d, []int{1}, Config{}, 5, 1); err == nil {
		t.Fatal("single voxel accepted")
	}
	if _, err := PermutationTest(d, []int{1, 2}, Config{}, 0, 1); err == nil {
		t.Fatal("zero permutations accepted")
	}
	one, _ := d.Subject(0)
	if _, err := PermutationTest(one, []int{1, 2}, Config{}, 5, 1); err == nil {
		t.Fatal("single subject accepted")
	}
}

func TestStreamingSelectorThroughFacade(t *testing.T) {
	s := testSpec()
	s.Subjects = 1
	s.EpochsPerSubject = 12
	d := mustGenerate(t, s)
	sel, err := NewStreamingSelector(Config{}, d.Voxels(), 12)
	if err != nil {
		t.Fatal(err)
	}
	// Feed epochs via the dataset's own windows.
	for _, e := range d.ds.Epochs {
		if err := sel.FeedEpoch(d.ds.EpochData(e).Clone(), e.Label); err != nil {
			t.Fatal(err)
		}
	}
	if !sel.Ready() || sel.Epochs() != 12 {
		t.Fatalf("ready=%v epochs=%d", sel.Ready(), sel.Epochs())
	}
	scores, err := sel.Select()
	if err != nil {
		t.Fatal(err)
	}
	planted := map[int]bool{}
	for _, v := range d.SignalVoxels() {
		planted[v] = true
	}
	hits := 0
	for _, sc := range scores[:10] {
		if planted[sc.Voxel] {
			hits++
		}
	}
	if hits < 6 {
		t.Fatalf("streaming facade selection found %d of 10", hits)
	}
}

// TestRemapScoresDropsCorruptIndices pins the fix for a crash found by
// static taint analysis: voxel scores arrive from worker wire frames or a
// replayed journal, so an index outside the sanitize report's kept set
// must be dropped as corruption, not trusted into a panic against Kept.
func TestRemapScoresDropsCorruptIndices(t *testing.T) {
	report := &fmri.SanitizeReport{Kept: []int{0, 2, 5}}
	scores := []VoxelScore{
		{Voxel: 0, Accuracy: 0.9},  // valid: maps to original 0
		{Voxel: -1, Accuracy: 0.8}, // corrupt: negative
		{Voxel: 2, Accuracy: 0.7},  // valid: maps to original 5
		{Voxel: 3, Accuracy: 0.6},  // corrupt: past the kept set
	}
	got := remapScores(scores, report)
	want := []VoxelScore{{Voxel: 0, Accuracy: 0.9}, {Voxel: 5, Accuracy: 0.7}}
	if len(got) != len(want) {
		t.Fatalf("remapScores kept %d scores, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("score %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// Without a DropVoxel report the scores pass through untouched.
	passthrough := []VoxelScore{{Voxel: 7, Accuracy: 0.5}}
	if got := remapScores(passthrough, nil); len(got) != 1 || got[0].Voxel != 7 {
		t.Errorf("nil report changed scores: %v", got)
	}
	if got := remapScores(passthrough, &fmri.SanitizeReport{}); len(got) != 1 || got[0].Voxel != 7 {
		t.Errorf("nil Kept changed scores: %v", got)
	}
}
