package fmri

import (
	"fmt"
	"math"

	"fcma/internal/tensor"
)

// SanitizePolicy selects how defective input data — NaN/Inf samples and
// zero-variance (constant) voxels — is handled before correlation.
// Scanner dropout, masking mistakes, and preprocessing bugs all produce
// such voxels; left alone they would either poison every correlation they
// touch (NaN propagates through the matrix products) or rely on the
// degenerate-correlation convention (constant voxels correlate 0 with
// everything).
type SanitizePolicy int

const (
	// SanitizeOff performs no pass. NaN/Inf samples flow into the
	// pipeline unchecked; zero-variance voxels are benign because the
	// correlation kernels define their correlation as 0.
	SanitizeOff SanitizePolicy = iota
	// SanitizeReject refuses datasets containing any NaN/Inf sample or
	// zero-variance voxel, naming the offending voxels.
	SanitizeReject
	// SanitizeDropVoxel removes defective voxels from the dataset; the
	// report's Kept mapping translates surviving voxel indices back to
	// the original numbering.
	SanitizeDropVoxel
	// SanitizeZeroFill replaces NaN/Inf samples with 0 on a copy of the
	// data. Zero-variance voxels are left in place (their correlations
	// are 0 by convention).
	SanitizeZeroFill
)

// String implements fmt.Stringer.
func (p SanitizePolicy) String() string {
	switch p {
	case SanitizeOff:
		return "off"
	case SanitizeReject:
		return "reject"
	case SanitizeDropVoxel:
		return "drop-voxel"
	case SanitizeZeroFill:
		return "zero-fill"
	}
	return fmt.Sprintf("SanitizePolicy(%d)", int(p))
}

// SanitizeReport describes the defects a sanitize pass found and, for
// SanitizeDropVoxel, how the surviving voxels map back to the original
// numbering.
type SanitizeReport struct {
	// Policy is the policy that produced this report.
	Policy SanitizePolicy
	// NonFinite lists voxels containing at least one NaN or Inf sample,
	// ascending.
	NonFinite []int
	// ZeroVariance lists voxels whose time course is constant over the
	// whole session (and finite), ascending.
	ZeroVariance []int
	// Dropped lists the original indices of removed voxels (DropVoxel
	// only), ascending.
	Dropped []int
	// Kept maps new voxel indices to original ones (DropVoxel only):
	// Kept[new] = original. Nil for other policies.
	Kept []int
}

// Clean reports whether the scan found no defects.
func (r *SanitizeReport) Clean() bool {
	return len(r.NonFinite) == 0 && len(r.ZeroVariance) == 0
}

func (r *SanitizeReport) summary() string {
	return fmt.Sprintf("%d voxels with NaN/Inf samples (first %v), %d zero-variance voxels (first %v)",
		len(r.NonFinite), firstFew(r.NonFinite, 5), len(r.ZeroVariance), firstFew(r.ZeroVariance, 5))
}

func firstFew(xs []int, n int) []int {
	if len(xs) < n {
		n = len(xs)
	}
	return xs[:n]
}

// scanDefects examines every sample of the dataset and classifies each
// voxel as non-finite (contains NaN/Inf), zero-variance (finite but
// constant across the session), or clean.
func scanDefects(d *Dataset) *SanitizeReport {
	r := &SanitizeReport{}
	for v := 0; v < d.Voxels(); v++ {
		row := d.Data.Row(v)
		bad := false
		constant := true
		for _, x := range row {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				bad = true
				break
			}
			if x != row[0] {
				constant = false
			}
		}
		switch {
		case bad:
			r.NonFinite = append(r.NonFinite, v)
		case constant:
			r.ZeroVariance = append(r.ZeroVariance, v)
		}
	}
	return r
}

// SanitizeDataset applies the policy to the dataset and returns the
// dataset to analyze plus the defect report. The input is never mutated:
// DropVoxel and ZeroFill return a new dataset (sharing nothing that the
// policy rewrites); a clean scan or SanitizeOff returns the input
// unchanged.
func SanitizeDataset(d *Dataset, policy SanitizePolicy) (*Dataset, *SanitizeReport, error) {
	if policy == SanitizeOff {
		return d, &SanitizeReport{Policy: policy}, nil
	}
	r := scanDefects(d)
	r.Policy = policy
	if r.Clean() {
		return d, r, nil
	}
	switch policy {
	case SanitizeReject:
		return nil, r, fmt.Errorf("fmri: dataset %q rejected by sanitize policy: %s", d.Name, r.summary())
	case SanitizeZeroFill:
		if len(r.NonFinite) == 0 {
			return d, r, nil // only zero-variance voxels: nothing to rewrite
		}
		out := *d
		out.Data = tensor.NewMatrix(d.Data.Rows, d.Data.Cols)
		for v := 0; v < d.Voxels(); v++ {
			src, dst := d.Data.Row(v), out.Data.Row(v)
			for i, x := range src {
				if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
					dst[i] = 0
				} else {
					dst[i] = x
				}
			}
		}
		return &out, r, nil
	case SanitizeDropVoxel:
		return dropVoxels(d, r)
	}
	return nil, r, fmt.Errorf("fmri: unknown sanitize policy %d", int(policy))
}

func dropVoxels(d *Dataset, r *SanitizeReport) (*Dataset, *SanitizeReport, error) {
	drop := make(map[int]bool, len(r.NonFinite)+len(r.ZeroVariance))
	for _, v := range r.NonFinite {
		drop[v] = true
	}
	for _, v := range r.ZeroVariance {
		drop[v] = true
	}
	kept := make([]int, 0, d.Voxels()-len(drop))
	for v := 0; v < d.Voxels(); v++ {
		if drop[v] {
			r.Dropped = append(r.Dropped, v)
		} else {
			kept = append(kept, v)
		}
	}
	if len(kept) == 0 {
		return nil, r, fmt.Errorf("fmri: dataset %q: sanitize would drop all %d voxels (%s)",
			d.Name, d.Voxels(), r.summary())
	}
	r.Kept = kept
	out := *d
	out.Data = tensor.NewMatrix(len(kept), d.Data.Cols)
	for nv, ov := range kept {
		copy(out.Data.Row(nv), d.Data.Row(ov))
	}
	// Re-reference the voxel-indexed side channels to the new numbering.
	newIdx := make(map[int]int, len(kept))
	for nv, ov := range kept {
		newIdx[ov] = nv
	}
	if d.GridIndex != nil {
		out.GridIndex = make([]int, len(kept))
		for nv, ov := range kept {
			out.GridIndex[nv] = d.GridIndex[ov]
		}
	}
	out.SignalVoxels = nil
	for _, sv := range d.SignalVoxels {
		if nv, ok := newIdx[sv]; ok {
			out.SignalVoxels = append(out.SignalVoxels, nv)
		}
	}
	return &out, r, nil
}
