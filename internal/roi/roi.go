// Package roi identifies regions of interest from FCMA's voxel selection:
// the paper's final step ("the brain regions constituted by top voxels are
// identified as ROIs", §3.1.2). Selected voxels are grouped into
// 6-connected components on the acquisition grid; components above a
// minimum size are reported as regions, largest first.
package roi

import (
	"fmt"
	"sort"
)

// Region is one connected component of selected voxels.
type Region struct {
	// Voxels are the member voxel indices, sorted ascending.
	Voxels []int
	// Center is the centroid in grid coordinates.
	Center [3]float64
	// PeakVoxel is the member with the highest score (ties: lowest
	// index); PeakScore its score. Zero-valued when no scores were given.
	PeakVoxel int
	PeakScore float64
}

// Size returns the number of member voxels.
func (r Region) Size() int { return len(r.Voxels) }

// coord converts a voxel index to grid coordinates under dims (x fastest).
func coord(dims [3]int, v int) [3]int {
	x := v % dims[0]
	y := (v / dims[0]) % dims[1]
	z := v / (dims[0] * dims[1])
	return [3]int{x, y, z}
}

// index converts grid coordinates back to a voxel index.
func index(dims [3]int, c [3]int) int {
	return c[0] + dims[0]*(c[1]+dims[1]*c[2])
}

// Clusters groups the selected voxels into 6-connected components on the
// dims grid and returns the components with at least minSize members,
// ordered by descending size (ties: ascending first voxel). scores is an
// optional voxel→score map used to fill the peak fields; nil is allowed.
func Clusters(dims [3]int, selected []int, minSize int, scores map[int]float64) ([]Region, error) {
	if dims[0] <= 0 || dims[1] <= 0 || dims[2] <= 0 {
		return nil, fmt.Errorf("roi: invalid grid %v", dims)
	}
	if minSize < 1 {
		minSize = 1
	}
	capacity := dims[0] * dims[1] * dims[2]
	inSet := make(map[int]bool, len(selected))
	for _, v := range selected {
		if v < 0 || v >= capacity {
			return nil, fmt.Errorf("roi: voxel %d outside grid %v", v, dims)
		}
		inSet[v] = true
	}
	visited := make(map[int]bool, len(inSet))
	var regions []Region
	// Iterate in sorted order for determinism.
	order := append([]int(nil), selected...)
	sort.Ints(order)
	for _, start := range order {
		if visited[start] {
			continue
		}
		// BFS over the 6-neighbourhood.
		var members []int
		queue := []int{start}
		visited[start] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			members = append(members, v)
			c := coord(dims, v)
			for _, d := range [6][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}} {
				n := [3]int{c[0] + d[0], c[1] + d[1], c[2] + d[2]}
				if n[0] < 0 || n[0] >= dims[0] || n[1] < 0 || n[1] >= dims[1] || n[2] < 0 || n[2] >= dims[2] {
					continue
				}
				ni := index(dims, n)
				if inSet[ni] && !visited[ni] {
					visited[ni] = true
					queue = append(queue, ni)
				}
			}
		}
		if len(members) < minSize {
			continue
		}
		sort.Ints(members)
		regions = append(regions, buildRegion(dims, members, scores))
	}
	sort.Slice(regions, func(i, j int) bool {
		if len(regions[i].Voxels) != len(regions[j].Voxels) {
			return len(regions[i].Voxels) > len(regions[j].Voxels)
		}
		return regions[i].Voxels[0] < regions[j].Voxels[0]
	})
	return regions, nil
}

func buildRegion(dims [3]int, members []int, scores map[int]float64) Region {
	r := Region{Voxels: members, PeakVoxel: -1}
	var cx, cy, cz float64
	for _, v := range members {
		c := coord(dims, v)
		cx += float64(c[0])
		cy += float64(c[1])
		cz += float64(c[2])
		if scores != nil {
			if s, ok := scores[v]; ok && (r.PeakVoxel == -1 || s > r.PeakScore) {
				r.PeakVoxel = v
				r.PeakScore = s
			}
		}
	}
	n := float64(len(members))
	r.Center = [3]float64{cx / n, cy / n, cz / n}
	if r.PeakVoxel == -1 {
		r.PeakVoxel = members[0]
	}
	return r
}
