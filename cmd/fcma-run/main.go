// Command fcma-run performs FCMA analyses: whole-brain voxel selection
// (with optional ROI reporting), the offline nested leave-one-subject-out
// experiment, the emulated online (single-subject) analysis, or
// conventional activity-based MVPA for comparison.
//
// Input is either the library's binary format (-data/-epochs), a NIfTI-1
// volume (-nii, with optional -mask), or a synthetic dataset (-synthetic).
//
// Usage:
//
//	fcma-run -mode select  -data fs.fcma -epochs fs.epochs -out-scores scores.csv
//	fcma-run -mode select  -nii run.nii -epochs run.epochs -subjects 18 -out-map acc.nii
//	fcma-run -mode offline -synthetic face-scene -scale 0.02
//	fcma-run -mode online  -synthetic attention -scale 0.02 -subject 0
//	fcma-run -mode mvpa    -synthetic face-scene -scale 0.02
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"fcma"
	"fcma/internal/obs"
)

func main() {
	mode := flag.String("mode", "select", `analysis: "select", "offline", "online", "mvpa" or "permtest"`)
	dataPath := flag.String("data", "", "dataset file written by fcma-gen")
	epochPath := flag.String("epochs", "", "epoch label file")
	niiPath := flag.String("nii", "", "NIfTI-1 4D time series (alternative to -data)")
	maskPath := flag.String("mask", "", "NIfTI-1 brain mask for -nii (default: automatic variance mask)")
	subjects := flag.Int("subjects", 1, "subjects concatenated in the -nii time series")
	synthetic := flag.String("synthetic", "", `generate instead of loading: "face-scene" or "attention"`)
	scale := flag.Float64("scale", 0.02, "synthetic dataset scale (0 < scale <= 1)")
	topK := flag.Int("topk", 0, "voxels to select (0 = default)")
	subject := flag.Int("subject", 0, "subject for online mode")
	workers := flag.Int("workers", 0, "goroutine bound (0 = GOMAXPROCS)")
	outScores := flag.String("out-scores", "", "write the full voxel ranking as CSV")
	outMap := flag.String("out-map", "", "write the accuracy map as a NIfTI overlay")
	roiMinSize := flag.Int("roi-min", 2, "minimum ROI size in voxels for select-mode reporting")
	permutations := flag.Int("permutations", 99, "permtest: label permutations")
	seed := flag.Int64("seed", 1, "permtest: permutation seed")
	listen := flag.String("listen", "", `serve /metrics (Prometheus text) and /debug/pprof/ on this address, e.g. ":9090" or ":0"`)
	progress := flag.Duration("progress", 0, "print progress lines (voxels/sec, ETA) at this interval, e.g. 10s; 0 disables")
	traceOut := flag.String("trace-out", "", "write the run's span timeline as Chrome trace-event JSON (open in Perfetto) to this file")
	bootstrap := obs.BootstrapCLI(flag.CommandLine)
	flag.Parse()

	// Reject out-of-range scales at the boundary: report.Options used to
	// swap them for the default silently, turning a typo into a wrong-size
	// run with plausible-looking output.
	if *scale <= 0 || *scale > 1 {
		fmt.Fprintf(os.Stderr, "fcma-run: -scale %g out of range (0, 1]\n", *scale)
		os.Exit(2)
	}

	logger := bootstrap("fcma-run")

	// SIGINT/SIGTERM cancel the analysis cooperatively: every pipeline
	// goroutine stops at its next checkpoint and the run exits cleanly. A
	// second signal kills the process the usual way.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	d := loadData(*dataPath, *epochPath, *niiPath, *maskPath, *subjects, *synthetic, *scale)
	cfg := fcma.Config{Workers: *workers, TopK: *topK}
	if *traceOut != "" {
		cfg.Trace = fcma.NewTracer()
	}
	// failRun is fail for the analysis below: it writes the trace first,
	// because fail leaves through os.Exit, which skips defers, and an
	// interrupted or failed run is the one whose timeline is wanted.
	failRun := func(err error) {
		if err != nil && cfg.Trace != nil {
			writeTrace(logger, cfg.Trace, *traceOut)
		}
		fail(err)
	}

	if *listen != "" {
		srv, err := fcma.ServeMetrics(*listen, nil)
		fail(err)
		defer srv.Close()
		logger.Info("serving metrics", "url", "http://"+srv.Addr())
	}
	if *progress > 0 {
		// Voxel scoring dominates every mode's runtime; total is only known
		// up front for single-pass modes.
		var total uint64
		if *mode == "select" || *mode == "mvpa" {
			total = uint64(d.Voxels())
		}
		stopProgress := obs.StartProgress(obs.ProgressOptions{
			W:        os.Stderr,
			Label:    "fcma-run",
			Unit:     "voxels",
			Total:    total,
			Counter:  obs.Default().Counter("core_voxels_scored_total"),
			Interval: *progress,
		})
		defer stopProgress()
	}
	switch *mode {
	case "select":
		scores, err := fcma.SelectVoxelsContext(ctx, d, cfg)
		failRun(err)
		reportSelection(d, scores, *topK, *roiMinSize)
		writeOutputs(failRun, d, scores, *outScores, *outMap)
	case "mvpa":
		scores, err := fcma.SelectVoxelsByActivityContext(ctx, d, cfg)
		failRun(err)
		k := clampK(*topK, len(scores))
		fmt.Printf("top %d of %d voxels by ACTIVITY-MVPA accuracy:\n", k, len(scores))
		for _, s := range scores[:k] {
			fmt.Printf("  voxel %6d  accuracy %.3f\n", s.Voxel, s.Accuracy)
		}
	case "permtest":
		scores, err := fcma.SelectVoxelsContext(ctx, d, cfg)
		failRun(err)
		k := clampK(*topK, len(scores))
		top := make([]int, k)
		for i, s := range scores[:k] {
			top[i] = s.Voxel
		}
		res, err := fcma.PermutationTest(d, top, cfg, *permutations, *seed)
		failRun(err)
		fmt.Printf("permutation test over the top %d voxels (%d permutations):\n", k, *permutations)
		fmt.Printf("  observed accuracy %.3f\n", res.Observed)
		var nullMax float64
		for _, v := range res.Null {
			if v > nullMax {
				nullMax = v
			}
		}
		fmt.Printf("  null maximum      %.3f\n", nullMax)
		fmt.Printf("  p-value           %.4f\n", res.P)
	case "offline":
		res, err := fcma.OfflineAnalysisContext(ctx, d, cfg)
		failRun(err)
		fmt.Printf("offline nested leave-one-subject-out on %s (%d subjects)\n", d.Name(), d.Subjects())
		for _, f := range res.Folds {
			fmt.Printf("  fold %2d: held-out accuracy %.3f  (%.2fs)\n",
				f.LeftOutSubject, f.TestAccuracy, f.Elapsed.Seconds())
		}
		fmt.Printf("mean accuracy %.3f, %d reliable voxels, total %.2fs\n",
			res.MeanAccuracy(), len(res.ReliableVoxels), res.Elapsed.Seconds())
		if rois, err := fcma.FindROIs(d, res.ReliableVoxels, nil, *roiMinSize); err == nil && len(rois) > 0 {
			fmt.Printf("reliable-voxel ROIs (min size %d):\n", *roiMinSize)
			for i, r := range rois {
				fmt.Printf("  ROI %d: %d voxels, center (%.1f, %.1f, %.1f)\n",
					i, r.Size(), r.Center[0], r.Center[1], r.Center[2])
			}
		}
	case "online":
		one, err := d.Subject(*subject)
		failRun(err)
		res, err := fcma.OnlineAnalysisContext(ctx, one, cfg)
		failRun(err)
		fmt.Printf("online voxel selection on %s subject %d: %d voxels in %.2fs\n",
			d.Name(), *subject, len(res.Selected), res.Elapsed.Seconds())
		for _, s := range res.Selected {
			fmt.Printf("  voxel %6d  accuracy %.3f\n", s.Voxel, s.Accuracy)
		}
	default:
		failRun(fmt.Errorf("unknown mode %q", *mode))
	}
	if cfg.Trace != nil {
		writeTrace(logger, cfg.Trace, *traceOut)
	}
}

// writeTrace drains the tracer and renders the Chrome-trace JSON file.
func writeTrace(logger *slog.Logger, tr *fcma.Tracer, path string) {
	spans := tr.Drain()
	f, err := os.Create(path)
	fail(err)
	fail(fcma.WriteTrace(f, spans))
	fail(f.Close())
	logger.Info("wrote trace", "path", path, "spans", len(spans))
}

func reportSelection(d *fcma.Data, scores []fcma.VoxelScore, topK, roiMin int) {
	k := clampK(topK, len(scores))
	fmt.Printf("top %d of %d voxels by cross-validated accuracy:\n", k, len(scores))
	for _, s := range scores[:k] {
		fmt.Printf("  voxel %6d  accuracy %.3f\n", s.Voxel, s.Accuracy)
	}
	top := make([]int, k)
	for i, s := range scores[:k] {
		top[i] = s.Voxel
	}
	rois, err := fcma.FindROIs(d, top, scores, roiMin)
	if err != nil || len(rois) == 0 {
		return
	}
	fmt.Printf("ROIs among the top %d (min size %d):\n", k, roiMin)
	for i, r := range rois {
		fmt.Printf("  ROI %d: %d voxels, peak voxel %d (%.3f), center (%.1f, %.1f, %.1f)\n",
			i, r.Size(), r.PeakVoxel, r.PeakScore, r.Center[0], r.Center[1], r.Center[2])
	}
}

// writeOutputs leaves through its caller's fail, main's failRun.
func writeOutputs(fail func(error), d *fcma.Data, scores []fcma.VoxelScore, outScores, outMap string) {
	if outScores != "" {
		f, err := os.Create(outScores)
		fail(err)
		fail(fcma.WriteScores(f, scores))
		fail(f.Close())
		fmt.Printf("wrote %s\n", outScores)
	}
	if outMap != "" {
		f, err := os.Create(outMap)
		fail(err)
		fail(fcma.AccuracyMap(d, scores, f))
		fail(f.Close())
		fmt.Printf("wrote %s\n", outMap)
	}
}

func clampK(k, n int) int {
	if k <= 0 || k > n {
		k = min(20, n)
	}
	return k
}

func loadData(dataPath, epochPath, niiPath, maskPath string, subjects int, synthetic string, scale float64) *fcma.Data {
	switch {
	case synthetic == "face-scene":
		d, err := fcma.FaceSceneShaped(scale)
		fail(err)
		return d
	case synthetic == "attention":
		d, err := fcma.AttentionShaped(scale)
		fail(err)
		return d
	case synthetic != "":
		fail(fmt.Errorf("unknown synthetic dataset %q", synthetic))
	case niiPath != "":
		if epochPath == "" {
			fail(fmt.Errorf("-nii needs -epochs"))
		}
		nf, err := os.Open(niiPath)
		fail(err)
		defer nf.Close()
		ef, err := os.Open(epochPath)
		fail(err)
		defer ef.Close()
		var mask io.Reader // stays a nil interface without -mask
		if maskPath != "" {
			mf, err := os.Open(maskPath)
			fail(err)
			defer mf.Close()
			mask = mf
		}
		d, err := fcma.LoadNIfTI(nf, mask, ef, niiPath, subjects)
		fail(err)
		return d
	case dataPath == "" || epochPath == "":
		fail(fmt.Errorf("need -data and -epochs, -nii and -epochs, or -synthetic"))
	}
	df, err := os.Open(dataPath)
	fail(err)
	defer df.Close()
	ef, err := os.Open(epochPath)
	fail(err)
	defer ef.Close()
	d, err := fcma.Load(df, ef)
	fail(err)
	return d
}

func fail(err error) {
	if err == nil {
		return
	}
	if errors.Is(err, context.Canceled) {
		slog.Warn("run cancelled")
		os.Exit(130)
	}
	slog.Error("fatal", "err", err)
	os.Exit(1)
}
