// Package cluster mirrors the master's score intake: a worker's scores
// arrive as a gob payload in a wire frame, decoded through a helper that
// writes into an `any` out-parameter, and their voxel indices must be
// checked before they index the kept-voxel table.
package cluster

import (
	"bytes"
	"encoding/gob"

	"example.test/internal/mpi"
)

// Score is one voxel's cross-validation accuracy.
type Score struct {
	Voxel    int
	Accuracy float32
}

// decode is the one gob helper every wire payload goes through.
func decode(b []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}

// Remap rewrites each decoded voxel index through kept, trusting it.
func Remap(msg mpi.Message, kept []int) []Score {
	var scores []Score
	if err := decode(msg.Body, &scores); err != nil {
		return nil
	}
	for i, s := range scores {
		scores[i].Voxel = kept[s.Voxel] // want "untrusted wire frame bytes reaches slice index"
	}
	return scores
}

// RemapChecked drops a score whose index is outside kept first: clean.
func RemapChecked(msg mpi.Message, kept []int) []Score {
	var scores []Score
	if err := decode(msg.Body, &scores); err != nil {
		return nil
	}
	out := scores[:0]
	for _, s := range scores {
		if s.Voxel < 0 || s.Voxel >= len(kept) {
			continue
		}
		s.Voxel = kept[s.Voxel]
		out = append(out, s)
	}
	return out
}
