package cluster

import (
	"errors"
	"fmt"

	"fcma/internal/chaos"
	"fcma/internal/core"
	"fcma/internal/obs"
	"fcma/internal/wal"
)

// Journal is the master's write-ahead log: a binary, CRC-framed record of
// task completions and their merged result blocks. It makes the *master*
// expendable the way the liveness protocol makes workers expendable — a
// restarted master (`fcma-cluster` with the same `-journal`) replays the
// journal, skips every voxel range already recorded complete, and issues
// only the rest, so the resumed run's scores are bit-exact with an
// uninterrupted one (completion records carry the raw float64 bits). It is
// the master's only progress store; the inspectable CSV is an output
// (`fcma-cluster -out-scores`), not a recovery format.
//
// The framing, atomic creation, and truncate-at-first-bad-frame recovery
// live in internal/wal (extracted from this file so the job service's
// journal shares them); this type owns only the record payloads and the
// master's replay state. Completions are fsynced before the master acts
// on them.
type Journal struct {
	log *wal.Log
	reg *obs.Registry // attached by the master; nil-safe

	completed map[int]float64 // voxel -> accuracy from completion records
}

const (
	journalMagic = "FCMAJNL1"
	// journalMaxRecord caps one record's payload well above any real task
	// result; a corrupt length header must not OOM the master.
	journalMaxRecord = 16 << 20

	// jrAssign records (an assigned task's v0, v and rank) are no longer
	// written, because a resumed master issues every task without a
	// completion anyway; replay still accepts them, so an older master's
	// journal resumes.
	jrAssign   = 1
	jrComplete = 2
)

// OpenJournal opens (or atomically creates) the journal at path and
// replays any records a previous master wrote. fsys is the filesystem seam
// through which chaos tests inject torn writes, ENOSPC and slow fsync into
// every durability decision the journal makes; nil is the real filesystem.
// reg, when non-nil, receives the WAL-level instruments (append/fsync
// latency, byte/record counters, replay duration and records replayed)
// under the log="cluster" label.
func OpenJournal(fsys chaos.FS, path string, reg *obs.Registry) (*Journal, error) {
	j := &Journal{completed: make(map[int]float64)}
	log, err := wal.OpenObserved(fsys, path, journalMagic, journalMaxRecord, j.apply, reg, "cluster")
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	j.log = log
	return j, nil
}

// apply folds one decoded record into the replay state.
func (j *Journal) apply(payload []byte) error {
	if len(payload) < 1 {
		return errors.New("empty record")
	}
	switch payload[0] {
	case jrAssign:
		if len(payload) != 13 {
			return fmt.Errorf("assign record of %d bytes", len(payload))
		}
	case jrComplete:
		_, _, scores, err := wal.DecodeScoreBlock(payload[1:])
		if err != nil {
			return fmt.Errorf("completion record: %w", err)
		}
		for _, s := range scores {
			j.completed[s.Voxel] = s.Accuracy
		}
	default:
		return fmt.Errorf("unknown record kind %d", payload[0])
	}
	return nil
}

// RecordComplete journals a completed task with its merged result block
// (the raw float64 score bits) and fsyncs before returning: once the
// master acts on a completion — acknowledging it, assigning the worker
// new work — a crash must not forget it, or a resumed run would
// recompute.
func (j *Journal) RecordComplete(v0, v int, scores []core.VoxelScore) error {
	payload := wal.AppendScoreBlock([]byte{jrComplete}, v0, v, scores)
	if _, err := j.log.Append(payload, true); err != nil {
		return fmt.Errorf("cluster: journal append: %w", err)
	}
	for _, s := range scores {
		j.completed[s.Voxel] = s.Accuracy
	}
	j.reg.Counter("cluster_journal_completions_total").Inc()
	return nil
}

// Done returns how many voxels the journal records complete.
func (j *Journal) Done() int { return len(j.completed) }

// Truncated reports whether opening the journal had to discard a torn or
// corrupt tail.
func (j *Journal) Truncated() bool { return j.log.Truncated() }

// Scores returns every journaled score, the rehydrated state a resumed
// master seeds its merge with.
func (j *Journal) Scores() []core.VoxelScore {
	out := make([]core.VoxelScore, 0, len(j.completed))
	for v, acc := range j.completed {
		out = append(out, core.VoxelScore{Voxel: v, Accuracy: acc})
	}
	return out
}

// attach points the journal's instruments at the master's registry and
// publishes the replay outcome.
func (j *Journal) attach(reg *obs.Registry) {
	j.reg = reg
	reg.Gauge("cluster_journal_replayed_voxels").Set(float64(len(j.completed)))
	if j.log.Truncated() {
		reg.Counter("cluster_journal_torn_recoveries_total").Inc()
	}
}

// Close fsyncs and releases the journal file.
func (j *Journal) Close() error { return j.log.Close() }

// Remove deletes the journal file; call it after a run completes so a
// later run does not resume from finished state.
func (j *Journal) Remove() error { return j.log.Remove() }
