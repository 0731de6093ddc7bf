package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareSets reports, for every run present in both result sets of one
// commit, whether each end-to-end metric of B is within its bound of A's
// (in either direction: the sets measure the same program) and whether
// the count rows of the per-layer ledger repeat exactly. It returns 0 when
// everything agrees, 1 otherwise.
func compareSets(stdout, stderr io.Writer, specPath, pathA, pathB string) int {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", specPath, err)
		return 2
	}
	bounds := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	a, err := readSet(pathA)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s: no runs", pathA)
	}
	b, errB := readSet(pathB)
	if err == nil {
		err = errB
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}

	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	disagree := 0
	fmt.Fprintf(stdout, "A = %s\nB = %s\n", pathA, pathB)
	for _, k := range keys {
		ra, rb := a[k].Result, b[k].Result
		if _, ok := b[k]; !ok {
			fmt.Fprintf(stdout, "%s: missing from B\n", k)
			disagree++
			continue
		}
		fmt.Fprintf(stdout, "%s: failed ops A=%d/%d B=%d/%d\n", k, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
		if !ra.Correct || !rb.Correct {
			disagree++
		}
		names := make([]string, 0, len(ra.Metrics))
		for n := range ra.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			va, vb := ra.Metrics[n].Value, rb.Metrics[n].Value
			bound, bounded := bounds[n]
			var verdict string
			switch {
			case bounded:
				verdict = fmt.Sprintf("within %.2f", bound)
				if rel := math.Abs(vb-va) / math.Abs(va); !(rel <= bound) {
					verdict = fmt.Sprintf("DISAGREE (bound %.2f)", bound)
					disagree++
				}
			case exactCounts[n]:
				verdict = "identical"
				if va != vb {
					verdict = "DISAGREE (count must repeat)"
					disagree++
				}
			default:
				continue
			}
			fmt.Fprintf(stdout, "  %-24s A=%-14.6g B=%-14.6g %+7.2f%%  %s\n", n, va, vb, 100*ratio(vb-va, va), verdict)
		}
	}
	if disagree > 0 {
		fmt.Fprintf(stdout, "%d disagreement(s)\n", disagree)
		return 1
	}
	fmt.Fprintln(stdout, "the two sets agree")
	return 0
}
