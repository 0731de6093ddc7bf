package blas

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"fcma/internal/chaos"
	"fcma/internal/mic"
	"fcma/internal/norm"
	"fcma/internal/tensor"
)

// TuningVersion is the current tuning-file schema version. LoadTuning
// rejects files from a different schema rather than silently misreading
// them.
const TuningVersion = 1

// Tuning is the persisted result of an autotune run: the block sizes the
// kernels should use on this machine. The zero value means "compiled
// defaults" everywhere, so an absent or empty tuning is always safe.
//
// Produced by Autotune (fcma-bench -tune), persisted as JSON, and applied
// via Kernel / core.Config.WithTuning. See DESIGN.md §15.
type Tuning struct {
	// Version is the schema version (TuningVersion when written).
	Version int `json:"version"`
	// Machine names the mic geometry that generated the candidate set.
	Machine string `json:"machine,omitempty"`
	// ColBlock is the gemm column-block width; 0 means DefaultColBlock.
	ColBlock int `json:"col_block,omitempty"`
	// SyrkBlock is the syrk long-dimension block; 0 means DefaultSyrkBlock.
	SyrkBlock int `json:"syrk_block,omitempty"`
	// VoxBlock is the merged pipeline's voxel-block height; 0 means the
	// pipeline default.
	VoxBlock int `json:"vox_block,omitempty"`
	// CreatedAt records when the tuning was measured.
	CreatedAt time.Time `json:"created_at,omitempty"`
}

// maxTunedBlock bounds persisted block sizes: anything past 2²² float32
// columns (16MB strips) is outside every modeled cache hierarchy and
// almost certainly a corrupt or hand-mangled file.
const maxTunedBlock = 1 << 22

// Validate reports whether the tuning can be applied: a known schema
// version and sane block ranges. The zero value is valid.
func (t Tuning) Validate() error {
	if t.Version != 0 && t.Version != TuningVersion {
		return fmt.Errorf("blas: tuning schema version %d, want %d", t.Version, TuningVersion)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"col_block", t.ColBlock}, {"syrk_block", t.SyrkBlock}, {"vox_block", t.VoxBlock}} {
		if f.v < 0 || f.v > maxTunedBlock {
			return fmt.Errorf("blas: tuning %s %d out of range [0, %d]", f.name, f.v, maxTunedBlock)
		}
	}
	return nil
}

// Kernel returns a TallSkinny configured with the tuned block sizes.
func (t Tuning) Kernel(workers int) TallSkinny {
	return TallSkinny{Workers: workers, ColBlock: t.ColBlock, SyrkBlock: t.SyrkBlock}
}

// LoadTuning reads and validates a tuning file written by WriteFile.
func LoadTuning(path string) (Tuning, error) {
	var t Tuning
	b, err := os.ReadFile(path)
	if err != nil {
		return t, fmt.Errorf("blas: reading tuning: %w", err)
	}
	if err := json.Unmarshal(b, &t); err != nil {
		return t, fmt.Errorf("blas: decoding tuning %s: %w", path, err)
	}
	if err := t.Validate(); err != nil {
		return t, fmt.Errorf("blas: tuning %s: %w", path, err)
	}
	return t, nil
}

// WriteFile persists the tuning as indented JSON, atomically and durably
// (temp + fsync + rename), so a crash mid-write cannot leave a torn file
// that poisons every later run's kernel configuration.
func (t Tuning) WriteFile(path string) error {
	if err := t.Validate(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return fmt.Errorf("blas: encoding tuning: %w", err)
	}
	b = append(b, '\n')
	if err := chaos.WriteFileAtomic(chaos.OS(), path, b, 0o644); err != nil {
		return fmt.Errorf("blas: writing tuning: %w", err)
	}
	return nil
}

// TuneOptions configures Autotune. The zero value measures the paper's
// workload shapes (64 assigned voxels × 12 time points against a 16384-
// voxel brain, 48×8192 syrk) on the host-proxy geometry, serially.
type TuneOptions struct {
	// Geometry supplies the cache model that generates candidates; the
	// zero value selects the Xeon E5-2670 host proxy.
	Geometry mic.Config
	// Voxels × TimePoints is the assigned gather block; Brain the wide
	// dimension; Epochs the per-subject epoch count of the merged proxy.
	Voxels, TimePoints, Brain, Epochs int
	// SyrkRows × SyrkCols is the measured syrk shape.
	SyrkRows, SyrkCols int
	// Workers is the kernel worker bound during measurement; 0 means 1
	// (the pipeline runs kernels serially inside its own parallelism).
	Workers int
	// Repeats is the number of timed runs per candidate (min is kept);
	// 0 means 3.
	Repeats int
	// Seed seeds the synthetic operand data; 0 means 1.
	Seed int64
}

func (o TuneOptions) withDefaults() TuneOptions {
	if o.Geometry.Name == "" {
		o.Geometry = mic.XeonE5_2670()
	}
	if o.Voxels <= 0 {
		o.Voxels = 64
	}
	if o.TimePoints <= 0 {
		o.TimePoints = 12
	}
	if o.Brain <= 0 {
		o.Brain = 16384
	}
	if o.Epochs <= 0 {
		o.Epochs = 12
	}
	if o.SyrkRows <= 0 {
		o.SyrkRows = 48
	}
	if o.SyrkCols <= 0 {
		o.SyrkCols = 8192
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Repeats <= 0 {
		o.Repeats = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// TuneCandidate is one measured block size.
type TuneCandidate struct {
	// Value is the candidate block size.
	Value int
	// Best is the fastest of the timed repeats.
	Best time.Duration
}

// TuneResult carries the winning Tuning plus every candidate's timing for
// report printing.
type TuneResult struct {
	Tuning Tuning
	// Gemm, Syrk, and Vox list the measured candidates per dimension,
	// ascending by block size.
	Gemm, Syrk, Vox []TuneCandidate
}

// Autotune measures every cache-geometry candidate block size on synthetic
// operands of the configured shapes and returns the fastest configuration.
// Candidate sets come from the mic geometry (GemmColBlockCandidates etc.)
// with the compiled defaults always included, so tuning can only match or
// beat the defaults on the machine it ran on. Ties go to the smaller
// block. Results are measured wall-clock and therefore machine-specific:
// persist them per machine, not in version control.
func Autotune(opts TuneOptions) (TuneResult, error) {
	o := opts.withDefaults()
	rng := rand.New(rand.NewSource(o.Seed))
	// Entries are uniform in ±T^-¼, so a T-term dot product has the spread
	// of a noise correlation (sd 1/3). The kernels' time does not depend on
	// the values, but the VoxBlock proxy feeds gemm's output to the Fisher
	// kernel, whose does: it takes its log branch above |r| = 0.625 and its
	// clamp above 1, and a proxy that sent most of a block there would
	// misweigh normalization against gemm.
	//lint:allow f32purity one-off operand scale, not kernel arithmetic
	amp := float32(1 / math.Sqrt(math.Sqrt(float64(o.TimePoints))))
	fill := func(m *tensor.Matrix) {
		for i := range m.Data {
			m.Data[i] = (rng.Float32()*2 - 1) * amp
		}
	}

	var res TuneResult

	// Gemm: C[voxels×brain] = A[voxels×T]·B[T×brain].
	A := tensor.NewMatrix(o.Voxels, o.TimePoints)
	B := tensor.NewMatrix(o.TimePoints, o.Brain)
	C := tensor.NewMatrix(o.Voxels, o.Brain)
	fill(A)
	fill(B)
	for _, cand := range mergeCandidates(o.Geometry.GemmColBlockCandidates(o.TimePoints), DefaultColBlock) {
		k := TallSkinny{Workers: o.Workers, ColBlock: cand}
		best := timeKernel(o.Repeats, func() { k.Gemm(C, A, B) })
		res.Gemm = append(res.Gemm, TuneCandidate{Value: cand, Best: best})
	}
	colBlock := pickWinner(res.Gemm)

	// Syrk: C[m×m] = A[m×n]·Aᵀ.
	SA := tensor.NewMatrix(o.SyrkRows, o.SyrkCols)
	SC := tensor.NewMatrix(o.SyrkRows, o.SyrkRows)
	fill(SA)
	for _, cand := range mergeCandidates(o.Geometry.SyrkBlockCandidates(o.SyrkRows), DefaultSyrkBlock) {
		k := TallSkinny{Workers: o.Workers, SyrkBlock: cand}
		best := timeKernel(o.Repeats, func() { k.Syrk(SC, SA) })
		res.Syrk = append(res.Syrk, TuneCandidate{Value: cand, Best: best})
	}
	syrkBlock := pickWinner(res.Syrk)

	// VoxBlock: proxy of one merged-pipeline subject pass — interleaved
	// epoch gemms into a voxel-block scratch, then per-voxel fused
	// normalization — over the same total voxels for every candidate.
	w := min(colBlock, o.Brain)
	Bview := B.View(0, 0, o.TimePoints, w)
	gk := TallSkinny{Workers: o.Workers, ColBlock: colBlock}
	var ns norm.Scratch
	for _, cand := range mergeCandidates(o.Geometry.MergedVoxBlockCandidates(o.Epochs, colBlock), 8) {
		vb := min(cand, o.Voxels)
		local := tensor.NewMatrix(vb*o.Epochs, w)
		best := timeKernel(o.Repeats, func() {
			for vs := 0; vs < o.Voxels; vs += vb {
				vh := min(vb, o.Voxels-vs)
				Aview := A.View(vs, 0, vh, o.TimePoints)
				for e := 0; e < o.Epochs; e++ {
					cView := &tensor.Matrix{Rows: vh, Cols: w, Stride: o.Epochs * local.Stride, Data: local.Data[e*local.Stride:]}
					gk.Gemm(cView, Aview, Bview)
				}
				for v := 0; v < vh; v++ {
					ns.FisherThenZScoreStrided(local.Data[v*o.Epochs*local.Stride:], o.Epochs, w, local.Stride)
				}
			}
		})
		res.Vox = append(res.Vox, TuneCandidate{Value: cand, Best: best})
	}
	voxBlock := pickWinner(res.Vox)

	res.Tuning = Tuning{
		Version:   TuningVersion,
		Machine:   o.Geometry.Name,
		ColBlock:  colBlock,
		SyrkBlock: syrkBlock,
		VoxBlock:  voxBlock,
		CreatedAt: time.Now().UTC(),
	}
	return res, res.Tuning.Validate()
}

// timeKernel runs fn once unmeasured (cache/pool warmup), then returns the
// fastest of repeats timed runs — min-of-N rejects scheduler noise better
// than the mean on a shared machine.
func timeKernel(repeats int, fn func()) time.Duration {
	fn()
	best := time.Duration(1<<63 - 1)
	for r := 0; r < repeats; r++ {
		t0 := time.Now()
		fn()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// mergeCandidates appends the compiled default to the geometry-derived
// candidates, sorted ascending without duplicates.
func mergeCandidates(cands []int, def int) []int {
	out := append([]int(nil), cands...)
	out = append(out, def)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	dst := out[:0]
	for i, x := range out {
		if i == 0 || x != out[i-1] {
			dst = append(dst, x)
		}
	}
	return dst
}

// pickWinner returns the fastest candidate's value; ties go to the
// smallest block (candidates arrive sorted ascending).
func pickWinner(cands []TuneCandidate) int {
	best := cands[0]
	for _, c := range cands[1:] {
		if c.Best < best.Best {
			best = c
		}
	}
	return best.Value
}
