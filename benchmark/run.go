package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fcma"
	"fcma/internal/safe"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sample is one measured op.
type sample struct {
	i     int
	start time.Time
	dur   time.Duration
	// stolen0 and stolen1 are the stolen-time clock (see stolen) when the op
	// started and when it ended.
	stolen0, stolen1 time.Duration
	out              outcome
	// err is the op's own error, or later the first output check it failed.
	err error
}

// measure drives the system in a closed loop for d: each client issues its
// next op only when its previous one has returned, and stops issuing once
// d has passed (every client completes at least one op).
func measure(ctx context.Context, e *env, sys *system, d time.Duration, rec *recorder) []sample {
	var (
		next    atomic.Int64
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < sys.clients; c++ {
		wg.Add(1)
		safe.Go("bench/client", func() error {
			for first := true; ctx.Err() == nil && (first || time.Since(start) < d); first = false {
				i := int(next.Add(1) - 1)
				sp := rec.root("op", i)
				s := sample{i: i, stolen0: stolen(e.p), start: time.Now()}
				s.out, s.err = sys.op(ctx, i, sp)
				s.dur = time.Since(s.start)
				s.stolen1 = stolen(e.p)
				sp.end()
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
			return nil
		}, func(err error) {
			if err != nil {
				mu.Lock()
				samples = append(samples, sample{i: -1, err: err})
				mu.Unlock()
			}
			wg.Done()
		})
	}
	wg.Wait()
	return samples
}

// judgement is the outcome of the output checks over a set of samples.
type judgement struct {
	failed int
	// recall is the planted_recall of the ops that passed, averaged per
	// input and then over inputs, so that it does not depend on how many
	// ops the run got through; lowRecall is the lowest of any op.
	recall, lowRecall float64
	// notes are the failures and the lowest recall, for the human reading
	// the run.
	notes []string
}

// judge runs every output check. A failed check marks the op failed; a
// check that cannot run (the reference path errors) is returned as an
// error, which ends the run without a result.
func judge(ctx context.Context, w workload, e *env, sys *system, samples []sample) (judgement, error) {
	j := judgement{lowRecall: 1}
	refs := make([][]fcma.VoxelScore, len(sys.inputs))
	if sys.reference != nil {
		// The reference paths are single-threaded; run p of them at a time.
		err := safe.ParallelDynamic(ctx, safe.Span{Stage: "bench/reference"}, len(refs), e.p, func(ctx context.Context, in int) (err error) {
			refs[in], err = sys.reference(ctx, in)
			return err
		})
		if err != nil {
			return j, fmt.Errorf("reference ranking: %w", err)
		}
	}
	sum := make([]float64, len(sys.inputs))
	ops := make([]int, len(sys.inputs))
	for k := range samples {
		s := &samples[k]
		var recall float64
		if s.err == nil {
			if recall, s.err = checkOp(w, sys, s, refs); recall > 0 {
				j.lowRecall = min(j.lowRecall, recall)
			}
		}
		if s.err != nil {
			j.failed++
			j.notes = append(j.notes, fmt.Sprintf("op %d: %v", s.i, s.err))
			continue
		}
		sum[s.i%len(sum)] += recall
		ops[s.i%len(sum)]++
	}
	covered := 0
	for in, n := range ops {
		if n > 0 {
			j.recall += sum[in] / float64(n)
			covered++
		}
	}
	j.recall = ratio(j.recall, float64(covered))
	j.notes = append(j.notes, fmt.Sprintf("lowest planted_recall of an op %.3f (an op below %.2f fails)", j.lowRecall, w.recallFloor))
	return j, nil
}

// checkOp applies every output check to one completed op and returns its
// planted_recall. refs holds, per input, the ranking ops on it must equal
// (bit for bit where the system is exact): the reference path's where the
// workload has one, else the first op's on that input (filled in here), so
// repeats are checked against each other.
func checkOp(w workload, sys *system, s *sample, refs [][]fcma.VoxelScore) (float64, error) {
	in := s.i % len(sys.inputs)
	input := sys.inputs[in]
	if err := checkRanking(s.out.scores, input.spec.Voxels, input.ranked); err != nil {
		return 0, err
	}
	same := sameRanking
	if !sys.exact {
		same = func(got, want []fcma.VoxelScore) error { return nearRanking(got, want, input.data.Epochs()) }
	}
	if refs[in] == nil {
		refs[in] = s.out.scores
	} else if err := same(s.out.scores, refs[in]); err != nil {
		if sys.reference != nil {
			return 0, fmt.Errorf("differs from the reference path: %w", err)
		}
		return 0, fmt.Errorf("differs from an earlier op on the same input: %w", err)
	}
	if s.out.check != nil {
		if err := s.out.check(); err != nil {
			return 0, err
		}
	}
	recall := plantedRecall(s.out.scores, input.data.SignalVoxels())
	if recall < w.recallFloor {
		return recall, fmt.Errorf("planted_recall %.3f below the floor %.2f", recall, w.recallFloor)
	}
	return recall, nil
}

// opSeconds returns the walls of the ops that completed.
func opSeconds(samples []sample) []float64 {
	var out []float64
	for _, s := range samples {
		if s.err == nil {
			out = append(out, s.dur.Seconds())
		}
	}
	return out
}

// stolen is a clock of the time the hypervisor kept this machine's
// processors from it: the steal column of /proc/stat summed over the
// processors, divided by the p of them a workload keeps busy. Time stolen
// while an op ran is not the program's, so the end-to-end walls leave it
// out. It reads 0 where the kernel does not report steal.
func stolen(p int) time.Duration {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	const userHz = 100 // the unit of /proc/stat on every Linux port
	return time.Duration(ticks) * time.Second / userHz / time.Duration(p)
}

// quietestThird cuts the ops that completed, in the order they started,
// into three consecutive blocks and returns the lowest median op wall and
// the highest throughput (voxels scored ÷ the block's wall, first start to
// last end) any block reached, stolen time left out of both. The reference
// box shares its cores with neighbours whose load arrives in phases of ten
// seconds or so; they only ever add time, so the quietest third of a run
// says more about the program than the whole of it (the min-of-N idea of
// blas.Autotune).
func quietestThird(sys *system, samples []sample) (opP50, voxelsPerS float64) {
	var ok []sample
	for _, s := range samples {
		if s.err == nil {
			ok = append(ok, s)
		}
	}
	sort.Slice(ok, func(a, b int) bool { return ok[a].start.Before(ok[b].start) })
	blocks := min(3, len(ok))
	for b := 0; b < blocks; b++ {
		block := ok[b*len(ok)/blocks : (b+1)*len(ok)/blocks]
		var walls []float64
		voxels, last := 0, block[0]
		for _, s := range block {
			walls = append(walls, (s.dur - (s.stolen1 - s.stolen0)).Seconds())
			voxels += sys.inputs[s.i%len(sys.inputs)].spec.Voxels
			if s.start.Add(s.dur).After(last.start.Add(last.dur)) {
				last = s
			}
		}
		if m := median(walls); b == 0 || m < opP50 {
			opP50 = m
		}
		wall := last.start.Add(last.dur).Sub(block[0].start) - (last.stolen1 - block[0].stolen0)
		voxelsPerS = max(voxelsPerS, float64(voxels)/wall.Seconds())
	}
	return opP50, voxelsPerS
}

// setupRepeats is how many times an untraced run sets the workload up; it
// reports the median, and measures on the last.
const setupRepeats = 3

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(ctx context.Context, w workload, e *env, d time.Duration) (_ *result, notes []string, err error) {
	var sys *system
	var setups []float64
	for r := 0; r < setupRepeats; r++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, nil, err
			}
		}
		start, stolen0 := time.Now(), stolen(e.p)
		if sys, err = w.setup(ctx, e); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (time.Since(start) - (stolen(e.p) - stolen0)).Seconds())
	}
	defer func() {
		if cerr := sys.close(); err == nil {
			err = cerr
		}
	}()

	samples := measure(ctx, e, sys, d, nil)
	j, err := judge(ctx, w, e, sys, samples)
	if err != nil {
		return nil, nil, err
	}
	opP50, voxelsPerS := quietestThird(sys, samples)
	if opP50 == 0 {
		return nil, j.notes, fmt.Errorf("no op completed: nothing to measure")
	}
	res := &result{
		Correct:   j.failed == 0,
		Attempted: len(samples),
		Failed:    j.failed,
		Metrics: map[string]metric{
			"setup_s":        {median(setups), "s"},
			"voxels_per_s":   {voxelsPerS, "voxels/s"},
			"op_p50_s":       {opP50, "s"},
			"planted_recall": {j.recall, "ratio"},
		},
	}
	return res, j.notes, nil
}
