// Facescene reproduces the paper's offline experiment (§5.2.1) on a
// scaled-down dataset with the face-scene shape: nested leave-one-
// subject-out cross-validation, where each fold selects voxels on the
// training subjects, trains a final classifier on their correlation
// patterns, and verifies it on the held-out subject. Reliable voxels —
// selected in a majority of folds — form the candidate ROIs.
package main

import (
	"flag"
	"fmt"
	"log"

	"fcma"
)

func main() {
	scale := flag.Float64("scale", 0.02, "dataset scale relative to the paper's face-scene dataset")
	topK := flag.Int("topk", 12, "voxels selected per fold")
	flag.Parse()

	data, err := fcma.FaceSceneShaped(*scale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset %q: %d voxels, %d subjects, %d epochs (scale %.3f)\n",
		data.Name(), data.Voxels(), data.Subjects(), data.Epochs(), *scale)

	res, err := fcma.OfflineAnalysis(data, fcma.Config{TopK: *topK})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nnested leave-one-subject-out over %d folds:\n", len(res.Folds))
	for _, f := range res.Folds {
		fmt.Printf("  fold %2d: held-out accuracy %.3f  best voxel %d (%.3f)  %.2fs\n",
			f.LeftOutSubject, f.TestAccuracy, f.Selected[0].Voxel, f.Selected[0].Accuracy,
			f.Elapsed.Seconds())
	}
	fmt.Printf("\nmean held-out accuracy: %.3f (chance = 0.5)\n", res.MeanAccuracy())

	planted := make(map[int]bool)
	for _, v := range data.SignalVoxels() {
		planted[v] = true
	}
	hits := 0
	for _, v := range res.ReliableVoxels {
		if planted[v] {
			hits++
		}
	}
	fmt.Printf("reliable voxels (selected in a majority of folds): %d, of which %d are planted ground truth\n",
		len(res.ReliableVoxels), hits)
	fmt.Printf("total wall time: %.2fs\n", res.Elapsed.Seconds())
}
