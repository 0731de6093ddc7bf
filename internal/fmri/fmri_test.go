package fmri

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"fcma/internal/tensor"
)

func smallSpec() Spec {
	return Spec{
		Name:             "test",
		Voxels:           64,
		Subjects:         4,
		EpochsPerSubject: 6,
		EpochLen:         12,
		RestLen:          4,
		SignalVoxels:     12,
		Coupling:         0.8,
		Seed:             42,
	}
}

func mustGenerate(t *testing.T, s Spec) *Dataset {
	t.Helper()
	d, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateShape(t *testing.T) {
	s := smallSpec()
	d := mustGenerate(t, s)
	if d.Voxels() != s.Voxels {
		t.Fatalf("voxels = %d", d.Voxels())
	}
	if len(d.Epochs) != s.Subjects*s.EpochsPerSubject {
		t.Fatalf("epochs = %d", len(d.Epochs))
	}
	wantTime := s.Subjects * (s.EpochsPerSubject*(s.EpochLen+s.RestLen) + s.RestLen)
	if d.TimePoints() != wantTime {
		t.Fatalf("time points = %d, want %d", d.TimePoints(), wantTime)
	}
	if len(d.SignalVoxels) != s.SignalVoxels {
		t.Fatalf("signal voxels = %d", len(d.SignalVoxels))
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGenerate(t, smallSpec())
	b := mustGenerate(t, smallSpec())
	if !a.Data.Equal(b.Data) {
		t.Fatal("same seed must give identical data")
	}
}

func TestGenerateSeedChangesData(t *testing.T) {
	s := smallSpec()
	a := mustGenerate(t, s)
	s.Seed = 43
	b := mustGenerate(t, s)
	if a.Data.Equal(b.Data) {
		t.Fatal("different seeds must give different data")
	}
}

func TestGenerateBalancedLabels(t *testing.T) {
	d := mustGenerate(t, smallSpec())
	counts := make([][2]int, d.Subjects)
	for _, e := range d.Epochs {
		counts[e.Subject][e.Label]++
	}
	for subj, c := range counts {
		if c[0] != c[1] {
			t.Fatalf("subject %d labels unbalanced: %v", subj, c)
		}
	}
}

// pearson computes the correlation between two slices for verification.
func pearson(a, b []float32) float64 {
	ma, sa := tensor.MeanStd(a)
	mb, sb := tensor.MeanStd(b)
	if sa == 0 || sb == 0 {
		return 0
	}
	var cov float64
	for i := range a {
		cov += (float64(a[i]) - ma) * (float64(b[i]) - mb)
	}
	cov /= float64(len(a))
	return cov / (sa * sb)
}

func TestGeneratePlantsConditionDependentCoupling(t *testing.T) {
	s := smallSpec()
	s.Subjects = 6
	s.EpochsPerSubject = 20
	d := mustGenerate(t, s)
	v1, v2 := d.SignalVoxels[0], d.SignalVoxels[1]
	var sum [2]float64
	var n [2]int
	for _, e := range d.Epochs {
		a := d.Data.Row(v1)[e.Start : e.Start+e.Len]
		b := d.Data.Row(v2)[e.Start : e.Start+e.Len]
		sum[e.Label] += pearson(a, b)
		n[e.Label]++
	}
	mean0, mean1 := sum[0]/float64(n[0]), sum[1]/float64(n[1])
	// ρ=0.8 → expected within-condition-1 correlation ≈ 0.64.
	if mean1 < 0.4 {
		t.Fatalf("condition-1 coupling too weak: %v", mean1)
	}
	if math.Abs(mean0) > 0.2 {
		t.Fatalf("condition-0 coupling should be near zero: %v", mean0)
	}
}

func TestGenerateNoiseVoxelsUncoupled(t *testing.T) {
	d := mustGenerate(t, smallSpec())
	signal := make(map[int]bool)
	for _, v := range d.SignalVoxels {
		signal[v] = true
	}
	var a, b int = -1, -1
	for v := 0; v < d.Voxels(); v++ {
		if !signal[v] {
			if a == -1 {
				a = v
			} else {
				b = v
				break
			}
		}
	}
	var sum float64
	for _, e := range d.Epochs {
		sum += pearson(d.Data.Row(a)[e.Start:e.Start+e.Len], d.Data.Row(b)[e.Start:e.Start+e.Len])
	}
	if mean := sum / float64(len(d.Epochs)); math.Abs(mean) > 0.25 {
		t.Fatalf("noise voxels show coupling: %v", mean)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []func(*Spec){
		func(s *Spec) { s.Voxels = 0 },
		func(s *Spec) { s.Subjects = 0 },
		func(s *Spec) { s.EpochsPerSubject = 5 },
		func(s *Spec) { s.EpochsPerSubject = 0 },
		func(s *Spec) { s.EpochLen = 1 },
		func(s *Spec) { s.RestLen = -1 },
		func(s *Spec) { s.SignalVoxels = -1 },
		func(s *Spec) { s.SignalVoxels = 1000 },
		func(s *Spec) { s.Coupling = 1.0 },
		func(s *Spec) { s.Coupling = -0.1 },
	}
	for i, mutate := range bad {
		s := smallSpec()
		mutate(&s)
		if _, err := Generate(s); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestPaperSpecsShape(t *testing.T) {
	fs := FaceSceneSpec(1)
	if fs.Voxels != 34470 || fs.Subjects != 18 || fs.Subjects*fs.EpochsPerSubject != 216 || fs.EpochLen != 12 {
		t.Fatalf("face-scene spec mismatch: %+v", fs)
	}
	at := AttentionSpec(1)
	if at.Voxels != 25260 || at.Subjects != 30 || at.Subjects*at.EpochsPerSubject != 540 || at.EpochLen != 12 {
		t.Fatalf("attention spec mismatch: %+v", at)
	}
}

func TestScaledSpecsStayValid(t *testing.T) {
	for _, scale := range []float64{0.01, 0.05, 0.1, 0.5, 1.0} {
		for _, spec := range []Spec{FaceSceneSpec(scale), AttentionSpec(scale)} {
			if err := checkSpec(spec); err != nil {
				t.Errorf("scale %v (%s): %v", scale, spec.Name, err)
			}
			if spec.SignalVoxels > spec.Voxels/2 {
				t.Errorf("scale %v (%s): too many signal voxels", scale, spec.Name)
			}
		}
	}
}

func TestEpochsPerSubjectUniform(t *testing.T) {
	d := mustGenerate(t, smallSpec())
	n, err := d.EpochsPerSubject()
	if err != nil || n != 6 {
		t.Fatalf("EpochsPerSubject = %d, %v", n, err)
	}
	// Break uniformity.
	d.Epochs = d.Epochs[1:]
	if _, err := d.EpochsPerSubject(); err == nil {
		t.Fatal("expected error for non-uniform epochs")
	}
}

func TestSelectSubjects(t *testing.T) {
	d := mustGenerate(t, smallSpec())
	sub := d.SelectSubjects([]int{2, 0})
	if sub.Subjects != 2 {
		t.Fatalf("subjects = %d", sub.Subjects)
	}
	if len(sub.Epochs) != 12 {
		t.Fatalf("epochs = %d", len(sub.Epochs))
	}
	// Subject 2 must be renumbered to 0, subject 0 to 1.
	seen := map[int]bool{}
	for _, e := range sub.Epochs {
		seen[e.Subject] = true
		if e.Subject < 0 || e.Subject > 1 {
			t.Fatalf("unexpected subject %d", e.Subject)
		}
	}
	if !seen[0] || !seen[1] {
		t.Fatal("renumbering incomplete")
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEpochDataView(t *testing.T) {
	d := mustGenerate(t, smallSpec())
	e := d.Epochs[3]
	view := d.EpochData(e)
	if view.Rows != d.Voxels() || view.Cols != e.Len {
		t.Fatalf("epoch view shape %dx%d", view.Rows, view.Cols)
	}
	if view.At(5, 0) != d.Data.At(5, e.Start) {
		t.Fatal("epoch view misaligned")
	}
}

func TestDataRoundTrip(t *testing.T) {
	// One row past readData's first allocation: in through the growth path.
	wide := &Dataset{Name: "wide", Data: tensor.NewMatrix(firstAlloc/1024+1, 1024), Subjects: 1}
	for i := range wide.Data.Data {
		wide.Data.Data[i] = float32(i % 8191)
	}
	for _, d := range []*Dataset{mustGenerate(t, smallSpec()), wide} {
		var buf bytes.Buffer
		if err := WriteData(&buf, d); err != nil {
			t.Fatal(err)
		}
		got, err := readData(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != d.Name || got.Subjects != d.Subjects {
			t.Fatalf("metadata mismatch: %q %d", got.Name, got.Subjects)
		}
		if !got.Data.Equal(d.Data) {
			t.Fatalf("%s: data round trip mismatch", d.Name)
		}
	}
}

func TestDataRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		s := smallSpec()
		s.Voxels = 8
		s.SignalVoxels = 4
		s.Subjects = 2
		s.EpochsPerSubject = 2
		s.Seed = seed
		d := mustGenerate(t, s)
		var buf bytes.Buffer
		if err := WriteData(&buf, d); err != nil {
			return false
		}
		got, err := readData(&buf)
		return err == nil && got.Data.Equal(d.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestReadDataRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("FCMA\x02\x00\x00\x00"), // truncated header
	}
	for i, c := range cases {
		if _, err := readData(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// Wrong version.
	var buf bytes.Buffer
	buf.Write(magic[:])
	for _, v := range []uint32{99, 1, 1, 1, 0} {
		var b [4]byte
		b[0] = byte(v)
		buf.Write(b[:])
	}
	if _, err := readData(&buf); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("expected version error, got %v", err)
	}
}

// headerThenZeros serves hdr, never past its end in one Read, and then
// zero bytes for as long as it is read, counting every byte it hands out.
type headerThenZeros struct {
	hdr  []byte
	read int
}

func (h *headerThenZeros) Read(p []byte) (int, error) {
	n := len(p)
	if h.read < len(h.hdr) {
		n = copy(p, h.hdr[h.read:])
	} else {
		clear(p)
	}
	h.read += n
	return n, nil
}

// A name longer than 1<<16 bytes is refused on the header's claim: the
// reader takes the header and not one name byte, even from a source that
// would supply the whole name.
func TestReadDataRefusesLongNameUnread(t *testing.T) {
	var hdr bytes.Buffer
	hdr.Write(magic[:])
	for _, v := range []uint32{formatVersion, 4, 4, 1, 0, 0, 0, 1<<16 + 1} {
		binary.Write(&hdr, binary.LittleEndian, v)
	}
	src := &headerThenZeros{hdr: hdr.Bytes()}
	if _, err := readData(src); err == nil {
		t.Fatal("a 65537-byte name was accepted")
	}
	if src.read != hdr.Len() {
		t.Fatalf("refusing the name read %d bytes, want the %d header bytes alone", src.read, hdr.Len())
	}
}

func TestEpochsRoundTrip(t *testing.T) {
	d := mustGenerate(t, smallSpec())
	var buf bytes.Buffer
	if err := WriteEpochs(&buf, d.Epochs); err != nil {
		t.Fatal(err)
	}
	got, err := readEpochs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(d.Epochs) {
		t.Fatalf("epoch count %d vs %d", len(got), len(d.Epochs))
	}
	for i := range got {
		if got[i] != d.Epochs[i] {
			t.Fatalf("epoch %d: %+v vs %+v", i, got[i], d.Epochs[i])
		}
	}
}

func TestReadEpochsParsing(t *testing.T) {
	in := "# comment\n\n0 1 10 12\n1 0 40 12\n"
	eps, err := readEpochs(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 2 || eps[0] != (Epoch{0, 1, 10, 12}) || eps[1] != (Epoch{1, 0, 40, 12}) {
		t.Fatalf("parsed %+v", eps)
	}
	for _, bad := range []string{"", "1 2 3", "a b c d", "# only comments\n"} {
		if _, err := readEpochs(strings.NewReader(bad)); err == nil {
			t.Errorf("input %q: expected error", bad)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	mutations := []func(*Dataset){
		func(d *Dataset) { d.Epochs[0].Start = -1 },
		func(d *Dataset) { d.Epochs[0].Start = d.TimePoints() },
		func(d *Dataset) { d.Epochs[0].Label = 7 },
		func(d *Dataset) { d.Epochs[0].Len = 0 },
		func(d *Dataset) { d.Epochs[0].Len = d.Epochs[1].Len + 1 },
		func(d *Dataset) { d.Epochs[0].Subject = 99 },
		func(d *Dataset) { d.Epochs = nil },
		func(d *Dataset) { d.SignalVoxels = []int{-3} },
	}
	for i, mutate := range mutations {
		d := mustGenerate(t, smallSpec())
		mutate(d)
		if err := d.Validate(); err == nil {
			t.Errorf("mutation %d: Validate accepted corrupt dataset", i)
		}
	}
}

func TestSpreadIndices(t *testing.T) {
	idx := spreadIndices(4, 100)
	if len(idx) != 4 {
		t.Fatalf("len = %d", len(idx))
	}
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			t.Fatalf("indices not increasing: %v", idx)
		}
	}
	if idx[len(idx)-1] >= 100 {
		t.Fatal("index out of range")
	}
	if spreadIndices(0, 10) != nil {
		t.Fatal("k=0 should give nil")
	}
}

func TestLabelsAndSubjectOfEpoch(t *testing.T) {
	d := mustGenerate(t, smallSpec())
	labels := d.Labels()
	subjects := d.SubjectOfEpoch()
	if len(labels) != len(d.Epochs) || len(subjects) != len(d.Epochs) {
		t.Fatal("length mismatch")
	}
	for i, e := range d.Epochs {
		if labels[i] != e.Label || subjects[i] != e.Subject {
			t.Fatalf("epoch %d: %d/%d vs %d/%d", i, labels[i], subjects[i], e.Label, e.Subject)
		}
	}
}

func TestBlobPlanting(t *testing.T) {
	s := smallSpec()
	s.Voxels = 343 // 7^3
	s.SignalVoxels = 24
	s.SignalBlobs = 3
	d := mustGenerate(t, s)
	if len(d.SignalVoxels) != 24 {
		t.Fatalf("planted %d", len(d.SignalVoxels))
	}
	// Sorted, unique, in range.
	for i, v := range d.SignalVoxels {
		if v < 0 || v >= s.Voxels {
			t.Fatalf("voxel %d out of range", v)
		}
		if i > 0 && v <= d.SignalVoxels[i-1] {
			t.Fatalf("not sorted/unique at %d", i)
		}
	}
	// Each planted voxel has a planted 6-neighbour (blobs are contiguous).
	planted := map[int]bool{}
	for _, v := range d.SignalVoxels {
		planted[v] = true
	}
	dims := d.Dims
	for _, v := range d.SignalVoxels {
		c := coordOf(dims, v)
		hasNeighbor := false
		for _, dd := range [6][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}} {
			n := [3]int{c[0] + dd[0], c[1] + dd[1], c[2] + dd[2]}
			if n[0] < 0 || n[0] >= dims[0] || n[1] < 0 || n[1] >= dims[1] || n[2] < 0 || n[2] >= dims[2] {
				continue
			}
			if planted[n[0]+dims[0]*(n[1]+dims[1]*n[2])] {
				hasNeighbor = true
				break
			}
		}
		if !hasNeighbor {
			t.Fatalf("voxel %d isolated (blobs must be contiguous)", v)
		}
	}
}

func TestBlobPlantingEdgeCases(t *testing.T) {
	if blobIndices([3]int{4, 4, 4}, 0, 2, 64) != nil {
		t.Fatal("zero total should give nil")
	}
	// More blobs than voxels requested: clamps to one voxel per blob.
	out := blobIndices([3]int{4, 4, 4}, 2, 5, 64)
	if len(out) != 2 {
		t.Fatalf("got %d voxels", len(out))
	}
	// Uneven split: 7 voxels over 3 blobs = 3+2+2.
	out = blobIndices([3]int{6, 6, 6}, 7, 3, 216)
	if len(out) != 7 {
		t.Fatalf("got %d voxels", len(out))
	}
}

func TestGridForShapes(t *testing.T) {
	cases := map[int][3]int{
		1:   {1, 1, 1},
		8:   {2, 2, 2},
		9:   {3, 3, 1},
		27:  {3, 3, 3},
		100: {5, 5, 4},
	}
	for n, want := range cases {
		if got := gridFor(n); got != want {
			t.Errorf("gridFor(%d) = %v, want %v", n, got, want)
		}
		g := gridFor(n)
		if g[0]*g[1]*g[2] < n {
			t.Errorf("gridFor(%d) = %v too small", n, g)
		}
	}
}

func TestValidateGridIndex(t *testing.T) {
	d := mustGenerate(t, smallSpec())
	d.GridIndex = []int{0} // wrong length
	if err := d.Validate(); err == nil {
		t.Fatal("short grid index accepted")
	}
	d.GridIndex = make([]int, d.Voxels())
	d.GridIndex[3] = -1
	if err := d.Validate(); err == nil {
		t.Fatal("negative grid index accepted")
	}
	d.GridIndex = nil
	d.Dims = [3]int{}
	d.GridIndex = make([]int, d.Voxels())
	if err := d.Validate(); err == nil {
		t.Fatal("grid index without dims accepted")
	}
}

func TestSpecRejectsNegativeBlobs(t *testing.T) {
	s := smallSpec()
	s.SignalBlobs = -1
	if _, err := Generate(s); err == nil {
		t.Fatal("negative blobs accepted")
	}
}

func TestScaleSpecClamping(t *testing.T) {
	// Out-of-range scales behave as 1.0.
	for _, scale := range []float64{-1, 0, 1.5} {
		s := FaceSceneSpec(scale)
		if s.Voxels != 34470 {
			t.Fatalf("scale %v: voxels %d", scale, s.Voxels)
		}
	}
	// Tiny scale clamps to minimums.
	s := FaceSceneSpec(1e-9)
	if s.Voxels < 16 || s.Subjects < 3 || s.SignalVoxels < 8 {
		t.Fatalf("minimum clamps broken: %+v", s)
	}
}
