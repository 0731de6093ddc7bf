// Command fcma-gen generates synthetic fMRI datasets with planted
// condition-dependent connectivity and writes them in the library's binary
// data + text epoch-label formats.
//
// Usage:
//
//	fcma-gen -dataset face-scene -scale 0.05 -out data/fs
//
// writes data/fs.fcma and data/fs.epochs.
package main

import (
	"flag"
	"fmt"
	"os"

	"fcma/internal/fmri"
	"fcma/internal/nifti"
	"fcma/internal/obs"
)

func main() {
	dataset := flag.String("dataset", "face-scene", `dataset shape: "face-scene", "attention" or "custom"`)
	scale := flag.Float64("scale", 0.05, "scale relative to the paper's dataset size (0 < scale <= 1)")
	out := flag.String("out", "dataset", "output path prefix (<out>.fcma and <out>.epochs)")
	asNIfTI := flag.Bool("nifti", false, "also write <out>.nii (NIfTI-1 volume)")
	seed := flag.Int64("seed", 0, "override the generator seed (0 keeps the dataset default)")

	voxels := flag.Int("voxels", 1024, "custom: brain size")
	subjects := flag.Int("subjects", 8, "custom: subject count")
	epochs := flag.Int("epochs", 12, "custom: epochs per subject (even)")
	epochLen := flag.Int("epoch-len", 12, "custom: time points per epoch")
	signal := flag.Int("signal", 64, "custom: planted signal voxels")
	coupling := flag.Float64("coupling", 0.8, "custom: planted coupling strength [0,1)")
	bootstrap := obs.BootstrapCLI(flag.CommandLine)
	flag.Parse()

	// fmri's specs map an out-of-range scale to 1: without this check a
	// typo writes the paper-size dataset and exits 0.
	if *scale <= 0 || *scale > 1 {
		fmt.Fprintf(os.Stderr, "fcma-gen: -scale %g out of range (0, 1]\n", *scale)
		os.Exit(2)
	}

	bootstrap("fcma-gen")

	var spec fmri.Spec
	switch *dataset {
	case "face-scene":
		spec = fmri.FaceSceneSpec(*scale)
	case "attention":
		spec = fmri.AttentionSpec(*scale)
	case "custom":
		spec = fmri.Spec{
			Name:             "custom",
			Voxels:           *voxels,
			Subjects:         *subjects,
			EpochsPerSubject: *epochs,
			EpochLen:         *epochLen,
			RestLen:          6,
			SignalVoxels:     *signal,
			Coupling:         *coupling,
			Seed:             1,
		}
	default:
		fail(fmt.Errorf("unknown dataset %q", *dataset))
	}
	if *seed != 0 {
		spec.Seed = *seed
	}

	d, err := fmri.Generate(spec)
	fail(err)

	dataPath := *out + ".fcma"
	epochPath := *out + ".epochs"
	df, err := os.Create(dataPath)
	fail(err)
	fail(fmri.WriteData(df, d))
	fail(df.Close())
	ef, err := os.Create(epochPath)
	fail(err)
	fail(fmri.WriteEpochs(ef, d.Epochs))
	fail(ef.Close())

	if *asNIfTI {
		vol, err := nifti.FromDataset(d)
		fail(err)
		nf, err := os.Create(*out + ".nii")
		fail(err)
		fail(nifti.Write(nf, vol))
		fail(nf.Close())
		fmt.Printf("wrote %s.nii (grid %v)\n", *out, d.Dims)
	}
	fmt.Printf("wrote %s (%d voxels x %d time points, %d subjects) and %s (%d epochs)\n",
		dataPath, d.Voxels(), d.TimePoints(), d.Subjects, epochPath, len(d.Epochs))
	fmt.Printf("planted signal voxels: %v\n", d.SignalVoxels)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fcma-gen:", err)
		os.Exit(1)
	}
}
