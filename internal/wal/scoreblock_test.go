package wal

import (
	"bytes"
	"math"
	"testing"

	"fcma/internal/core"
)

func TestScoreBlockRoundTrip(t *testing.T) {
	scores := []core.VoxelScore{
		{Voxel: 7, Accuracy: 1.0 / 3.0},
		{Voxel: 9, Accuracy: math.Nextafter(0.7, 1)},
		{Voxel: 8, Accuracy: 0.1 + 0.2},
	}
	block := AppendScoreBlock([]byte("hdr"), 7, 3, scores)
	if string(block[:3]) != "hdr" || len(block) != 3+12+3*12 {
		t.Fatalf("block = %x", block)
	}
	v0, v, got, err := DecodeScoreBlock(block[3:])
	if err != nil || v0 != 7 || v != 3 || len(got) != len(scores) {
		t.Fatalf("decode = %d, %d, %v, %v", v0, v, got, err)
	}
	for i, s := range scores {
		if got[i].Voxel != s.Voxel || math.Float64bits(got[i].Accuracy) != math.Float64bits(s.Accuracy) {
			t.Fatalf("score %d: %+v, want bit-exact %+v", i, got[i], s)
		}
	}
}

func TestScoreBlockRejects(t *testing.T) {
	good := AppendScoreBlock(nil, 4, 2, []core.VoxelScore{{Voxel: 4, Accuracy: 0.5}, {Voxel: 5, Accuracy: 1}})
	for name, p := range map[string][]byte{
		"empty":             nil,
		"short header":      good[:11],
		"torn entry":        good[:len(good)-1],
		"trailing bytes":    append(append([]byte(nil), good...), 0),
		"count beyond data": {0, 0, 0, 0, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff},
		"voxel below range": AppendScoreBlock(nil, 4, 2, []core.VoxelScore{{Voxel: 3, Accuracy: 0.5}}),
		"voxel past range":  AppendScoreBlock(nil, 4, 2, []core.VoxelScore{{Voxel: 6, Accuracy: 0.5}}),
		"empty range":       AppendScoreBlock(nil, 4, 0, []core.VoxelScore{{Voxel: 4, Accuracy: 0.5}}),
	} {
		if _, _, _, err := DecodeScoreBlock(p); err == nil {
			t.Errorf("%s: block %x accepted", name, p)
		}
	}
}

// FuzzScoreBlockDecode: arbitrary bytes either fail to decode or decode to
// a block whose every voxel lies in its own range and that re-encodes to
// exactly the input — the decoder accepts nothing the encoder could not
// have written.
func FuzzScoreBlockDecode(f *testing.F) {
	f.Add(AppendScoreBlock(nil, 0, 3, []core.VoxelScore{{Voxel: 0, Accuracy: 1.0 / 3.0}, {Voxel: 1, Accuracy: 0.3}, {Voxel: 2, Accuracy: 5.0 / 6.0}}))
	f.Add(AppendScoreBlock(nil, 16, 2, nil))
	f.Add(AppendScoreBlock(nil, 4, 2, []core.VoxelScore{{Voxel: 6, Accuracy: 0.5}}))
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		v0, v, scores, err := DecodeScoreBlock(p)
		if err != nil {
			return
		}
		for _, s := range scores {
			if s.Voxel < v0 || s.Voxel >= v0+v {
				t.Fatalf("accepted voxel %d outside [%d,%d)", s.Voxel, v0, v0+v)
			}
		}
		if again := AppendScoreBlock(nil, v0, v, scores); !bytes.Equal(again, p) {
			t.Fatalf("decode/encode is not the identity:\n in  %x\n out %x", p, again)
		}
	})
}
