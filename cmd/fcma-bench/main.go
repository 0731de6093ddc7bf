// Command fcma-bench regenerates the tables and figures of the paper's
// evaluation section. Each experiment prints the reproduced values next to
// the paper's published numbers.
//
// Usage:
//
//	fcma-bench [-scale f] [-svm-calib f] [experiment ...]
//
// Experiments: table1 table2 table3 table4 table5 table6 table7 table8
// fig8 fig9 fig10 fig11 knl ablation memory native-fig8 native-fig9
// native-ledger, or "all" (default: all model-based experiments; the native
// cross-checks run real kernels on the host CPU and are included only when
// named).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fcma/internal/obs"
	"fcma/internal/report"
)

func main() {
	scale := flag.Float64("scale", 0.02, "scale relative to paper-size problems, of the model tables' traces and of the native cross-checks' datasets (0 < scale <= 1)")
	svmCalib := flag.Float64("svm-calib", 0, "SVM iteration-hardness calibration (0 = default, see EXPERIMENTS.md)")
	bootstrap := obs.BootstrapCLI(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fcma-bench [flags] [experiment ...]\n\nexperiments: %s\n\nflags:\n",
			strings.Join(experimentNames(), " "))
		flag.PrintDefaults()
	}
	flag.Parse()

	// Out-of-range scales used to be silently replaced by the default deep
	// inside report.Options; reject them at the boundary instead so a typo
	// can't masquerade as a paper-scale run.
	if *scale <= 0 || *scale > 1 {
		fmt.Fprintf(os.Stderr, "fcma-bench: -scale %g out of range (0, 1]\n", *scale)
		os.Exit(2)
	}

	bootstrap("fcma-bench")

	runner := report.New(report.Options{Scale: *scale, SVMCalibration: *svmCalib})
	experiments := modelExperiments(runner)

	names := flag.Args()
	if len(names) == 0 || (len(names) == 1 && names[0] == "all") {
		names = defaultExperiments() // model-based set; natives opt-in
	}
	for _, name := range names {
		if native, ok := nativeExperiments[name]; ok {
			tb, err := native(report.NativeOptions{Scale: *scale})
			fail(err)
			fmt.Println(tb.Render())
			continue
		}
		fn, ok := experiments[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "fcma-bench: unknown experiment %q (want one of %s)\n",
				name, strings.Join(experimentNames(), " "))
			os.Exit(2)
		}
		fmt.Println(fn().Render())
	}
}

func modelExperiments(r *report.Runner) map[string]func() *report.Table {
	return map[string]func() *report.Table{
		"table1": r.Table1, "table2": r.Table2, "table3": r.Table3,
		"table4": r.Table4, "table5": r.Table5, "table6": r.Table6,
		"table7": r.Table7, "table8": r.Table8,
		"fig8": r.Fig8, "fig9": r.Fig9, "fig10": r.Fig10, "fig11": r.Fig11,
		"knl": r.TableKNL, "ablation": r.TableAblation, "memory": r.TableMemory,
	}
}

// nativeExperiments are the opt-in cross-checks that run the real pipeline
// on the host CPU.
var nativeExperiments = map[string]func(report.NativeOptions) (*report.Table, error){
	"native-fig8":   report.NativeScaling,
	"native-fig9":   report.NativeSpeedup,
	"native-ledger": report.NativeLedger,
}

func experimentNames() []string {
	return []string{
		"table1", "table2", "table3", "table4", "table5", "table6",
		"table7", "table8", "fig8", "fig9", "fig10", "fig11", "knl", "ablation", "memory",
		"native-fig8", "native-fig9", "native-ledger",
	}
}

// defaultExperiments is the "all" set: every model-based experiment, in
// canonical order, derived from the experiment map itself so a newly
// registered experiment can't be silently dropped by a stale slice bound.
func defaultExperiments() []string {
	model := modelExperiments(nil)
	var names []string
	for _, n := range experimentNames() {
		if _, ok := model[n]; ok {
			names = append(names, n)
		}
	}
	return names
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fcma-bench:", err)
		os.Exit(1)
	}
}
