package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"

	"fcma/internal/chaos"
	"fcma/internal/core"
	"fcma/internal/obs"
	"fcma/internal/wal"
)

// Journal is the master's write-ahead log: a binary, CRC-framed record of
// task assignments, completions, and their merged result blocks. It is
// what makes the *master* expendable the way PR 1 made workers
// expendable — a restarted master (`fcma-cluster -resume`) replays the
// journal, skips every voxel range already recorded complete, and
// re-issues only in-flight work, so the resumed run's scores are
// bit-exact with an uninterrupted one (completion records carry the raw
// float64 bits). It is the master's only progress store; the inspectable
// CSV is an output (`fcma-cluster -out-scores`), not a recovery format.
//
// The framing, atomic creation, and truncate-at-first-bad-frame recovery
// live in internal/wal (extracted from this file so the job service's
// journal shares them); this type owns only the record payloads and the
// master's replay state. Completions are fsynced before the master acts
// on them; assignments are advisory and unsynced.
type Journal struct {
	log *wal.Log
	reg *obs.Registry // attached by the master; nil-safe

	completed map[int]float64 // voxel -> accuracy from completion records
	assigns   int             // assignment records replayed
	replayed  int             // completion records replayed
}

const (
	journalMagic = "FCMAJNL1"
	// journalMaxRecord caps one record's payload well above any real task
	// result; a corrupt length header must not OOM the master.
	journalMaxRecord = 16 << 20

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
		j.assigns++
	case jrComplete:
		_, _, scores, err := wal.DecodeScoreBlock(payload[1:])
		if err != nil {
			return fmt.Errorf("completion record: %w", err)
		}
		for _, s := range scores {
			j.completed[s.Voxel] = s.Accuracy
		}
		j.replayed++
	default:
		return fmt.Errorf("unknown record kind %d", payload[0])
	}
	return nil
}

// append frames payload through the WAL, which books its own latency,
// record and byte series under log="cluster". sync controls whether the
// record is fsynced before returning.
func (j *Journal) append(payload []byte, sync bool) error {
	if _, err := j.log.Append(payload, sync); err != nil {
		return fmt.Errorf("cluster: journal append: %w", err)
	}
	return nil
}

// RecordAssign journals a task assignment. Assignments are advisory —
// losing one to a crash only means the resumed master re-issues the task,
// which is always safe — so they are written without an fsync and the
// master treats append failures as survivable.
func (j *Journal) RecordAssign(v0, v, rank int) error {
	var p [13]byte
	p[0] = jrAssign
	binary.LittleEndian.PutUint32(p[1:], uint32(v0))
	binary.LittleEndian.PutUint32(p[5:], uint32(v))
	binary.LittleEndian.PutUint32(p[9:], uint32(rank))
	return j.append(p[:], false)
}

// RecordComplete journals a completed task with its merged result block
// (the raw float64 score bits) and fsyncs before returning: once the
// master acts on a completion — acknowledging it, assigning the worker
// new work — a crash must not forget it, or a resumed run would
// recompute.
func (j *Journal) RecordComplete(v0, v int, scores []core.VoxelScore) error {
	payload := wal.AppendScoreBlock([]byte{jrComplete}, v0, v, scores)
	if err := j.append(payload, true); err != nil {
		return err
	}
	for _, s := range scores {
		j.completed[s.Voxel] = s.Accuracy
	}
	j.reg.Counter("cluster_journal_completions_total").Inc()
	return nil
}

// Has reports whether voxel v is recorded complete.
func (j *Journal) Has(v int) bool {
	_, ok := j.completed[v]
	return ok
}

// Done returns how many voxels the journal records complete.
func (j *Journal) Done() int { return len(j.completed) }

// Truncated reports whether opening the journal had to discard a torn or
// corrupt tail.
func (j *Journal) Truncated() bool { return j.log.Truncated() }

// ReplayedAssigns returns how many assignment records the open replayed —
// the in-flight tasks of the crashed incarnation, which the resumed
// master re-issues.
func (j *Journal) ReplayedAssigns() int { return j.assigns }

// ReplayedCompletions returns how many completion records the open
// replayed.
func (j *Journal) ReplayedCompletions() int { return j.replayed }

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
	reg.Gauge("cluster_journal_replayed_assigns").Set(float64(j.assigns))
	if j.log.Truncated() {
		reg.Counter("cluster_journal_torn_recoveries_total").Inc()
	}
}

// Close fsyncs and releases the journal file.
func (j *Journal) Close() error { return j.log.Close() }

// Remove deletes the journal file; call it after a run completes so a
// later run does not resume from finished state.
func (j *Journal) Remove() error { return j.log.Remove() }
