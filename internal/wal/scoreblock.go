package wal

import (
	"encoding/binary"
	"fmt"
	"math"

	"fcma/internal/core"
)

// A score block is the payload both journals store for a finished voxel
// range (a cluster task, a service chunk): the range and its scores with
// the raw float64 bits, which is what makes a replayed run bit-exact with
// an uninterrupted one. Little endian:
//
//	v0 uint32 | v uint32 | count uint32 | count × (voxel uint32, accuracy bits uint64)
//
// This file is the layout's only definition; the cluster master's
// completion record and the job service's progress record put their own
// header in front of it.
const (
	scoreBlockHeader = 12
	scoreBlockEntry  = 12
)

// AppendScoreBlock appends the block for voxel range [v0, v0+v) to dst.
func AppendScoreBlock(dst []byte, v0, v int, scores []core.VoxelScore) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(v0))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(scores)))
	for _, s := range scores {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(s.Voxel))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Accuracy))
	}
	return dst
}

// DecodeScoreBlock parses p, which must be exactly one block. A block
// whose length disagrees with its count, or that scores a voxel outside
// its own range, is rejected: replay state built from accepted blocks
// never holds a voxel the record did not claim to cover.
func DecodeScoreBlock(p []byte) (v0, v int, scores []core.VoxelScore, err error) {
	if len(p) < scoreBlockHeader {
		return 0, 0, nil, fmt.Errorf("score block of %d bytes", len(p))
	}
	v0 = int(binary.LittleEndian.Uint32(p))
	v = int(binary.LittleEndian.Uint32(p[4:]))
	count := int(binary.LittleEndian.Uint32(p[8:]))
	if n := len(p) - scoreBlockHeader; n%scoreBlockEntry != 0 || n/scoreBlockEntry != count {
		return 0, 0, nil, fmt.Errorf("score block of %d bytes for %d scores", len(p), count)
	}
	scores = make([]core.VoxelScore, count)
	for i := range scores {
		e := p[scoreBlockHeader+i*scoreBlockEntry:]
		s := core.VoxelScore{
			Voxel:    int(binary.LittleEndian.Uint32(e)),
			Accuracy: math.Float64frombits(binary.LittleEndian.Uint64(e[4:])),
		}
		if s.Voxel < v0 || s.Voxel-v0 >= v {
			return 0, 0, nil, fmt.Errorf("score block for voxels [%d,%d) scores voxel %d", v0, v0+v, s.Voxel)
		}
		scores[i] = s
	}
	return v0, v, scores, nil
}
