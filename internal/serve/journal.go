package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"

	"fcma/internal/chaos"
	"fcma/internal/core"
	"fcma/internal/obs"
	"fcma/internal/wal"
)

// journal is the service's write-ahead log of job lifecycle and progress,
// sharing the wal framing (and its torn-tail recovery) with the cluster
// master's journal. The durability policy follows the job state machine:
//
//   - accept records are fsynced BEFORE the 202 reaches the client — the
//     admission contract is "never acknowledge work you cannot replay";
//   - progress records (one per computed chunk, raw float64 score bits)
//     are fsynced before the executor advances past the chunk, so a kill
//     loses at most the chunk in flight and a resumed job recomputes
//     only that;
//   - terminal state records (done/failed/canceled) are fsynced before
//     the transition is visible to clients, written exactly once;
//   - running/checkpointing transitions are advisory and unsynced —
//     losing one only makes a resumed server re-run work that is always
//     safe to re-run (journaled chunks are skipped).
type journal struct {
	mu   sync.Mutex
	log  *wal.Log
	halt func(error) // called on a failed append: the owner stops

	// replay state; store sizes each replayed job as validate builds it
	jobs   map[string]*jobRecord
	maxSeq int // the highest id number accepted or reserved
	store  *datasetStore
}

const (
	serveMagic     = "FCMASRV1"
	serveMaxRecord = 64 << 20

	srAccept   = 1
	srState    = 2
	srProgress = 3
	srFloor    = 4 // an id number no job takes
)

// acceptRecord is the JSON payload of an srAccept record.
type acceptRecord struct {
	ID   string  `json:"id"`
	Spec JobSpec `json:"spec"`
}

// stateRecord is the JSON payload of an srState record.
type stateRecord struct {
	ID    string   `json:"id"`
	State jobState `json:"state"`
	Err   string   `json:"err,omitempty"`
}

// openJournal opens (or creates) the job journal at path and replays it
// into a fresh job map, each accepted spec through the same validate as
// Submit: one that fails stops the replay and leaves the file as it was.
// A journal left by an earlier incarnation may have lost its last accept,
// whose id a 503 named: the open journals that id as a floor, fsynced.
func openJournal(fsys chaos.FS, path string, reg *obs.Registry, store *datasetStore, halt func(error)) (*journal, error) {
	j := &journal{jobs: make(map[string]*jobRecord), store: store, halt: halt}
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	prior := err == nil
	if prior {
		f.Close()
	}
	log, err := wal.OpenObserved(fsys, path, serveMagic, serveMaxRecord, j.apply, reg, "serve")
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	j.log = log
	if prior {
		j.maxSeq++
		if _, err := log.Append(floorRecord(j.maxSeq), true); err != nil {
			log.Close()
			return nil, fmt.Errorf("serve: journaling the id floor: %w", err)
		}
	}
	if log.Truncated() {
		reg.Counter("serve_journal_torn_recoveries_total").Inc()
	}
	// Jobs the crash caught mid-run replay as running/checkpointing; their
	// executor is gone, so hand them back to the queue as accepted (their
	// journaled chunks make the re-run incremental).
	for _, job := range j.jobs {
		if job.State == stateRunning || job.State == stateCheckpointing {
			job.State = stateAccepted
		}
		if job.State == stateDone {
			job.finalize()
		}
	}
	return j, nil
}

// apply folds one replayed record into the job map.
func (j *journal) apply(payload []byte) error {
	if len(payload) < 1 {
		return errors.New("empty record")
	}
	switch payload[0] {
	case srAccept:
		var rec acceptRecord
		if err := json.Unmarshal(payload[1:], &rec); err != nil {
			return fmt.Errorf("accept record: %w", err)
		}
		if rec.ID == "" {
			return errors.New("accept record without id")
		}
		if _, dup := j.jobs[rec.ID]; dup {
			return fmt.Errorf("duplicate accept for %s", rec.ID)
		}
		job, err := rec.Spec.validate(j.store)
		if err != nil {
			return fmt.Errorf("accept record for %s: %w", rec.ID, err)
		}
		job.ID = rec.ID
		j.jobs[rec.ID] = job
		if n, err := strconv.Atoi(strings.TrimPrefix(rec.ID, "job-")); err == nil && n > j.maxSeq {
			j.maxSeq = n
		}
	case srState:
		var rec stateRecord
		if err := json.Unmarshal(payload[1:], &rec); err != nil {
			return fmt.Errorf("state record: %w", err)
		}
		job, ok := j.jobs[rec.ID]
		if !ok {
			return fmt.Errorf("state record for unknown job %s", rec.ID)
		}
		// A journal spanning several server incarnations legitimately holds
		// repeated non-terminal transitions (each incarnation re-marks a
		// resumed job running), so replay accepts idempotent ones.
		idempotent := rec.State == job.State && !rec.State.Terminal()
		if !rec.State.valid() || (!canTransition(job.State, rec.State) && !idempotent) {
			return fmt.Errorf("illegal transition %s → %s for %s", job.State, rec.State, rec.ID)
		}
		job.State = rec.State
		job.Err = rec.Err
	case srFloor:
		if len(payload) != 9 {
			return errors.New("short floor record")
		}
		j.maxSeq = max(j.maxSeq, int(binary.LittleEndian.Uint64(payload[1:])))
	case srProgress:
		id, v0, v, scores, err := decodeProgress(payload)
		if err != nil {
			return err
		}
		job, ok := j.jobs[id]
		if !ok {
			return fmt.Errorf("progress record for unknown job %s", id)
		}
		job.mergeChunk(v0, v, scores)
	default:
		return fmt.Errorf("unknown record kind %d", payload[0])
	}
	return nil
}

// append frames payload through the WAL under the journal lock. The WAL
// books its own latency, record and byte series under log="serve".
func (j *journal) append(payload []byte, sync bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.log.Append(payload, sync); err != nil {
		j.halt(err)
		return fmt.Errorf("serve: journal append: %w", err)
	}
	return nil
}

// recordAccept journals a job acceptance, fsynced: only after this
// returns may the server send 202.
func (j *journal) recordAccept(id string, spec JobSpec) error {
	body, err := json.Marshal(acceptRecord{ID: id, Spec: spec})
	if err != nil {
		return fmt.Errorf("serve: encoding accept: %w", err)
	}
	return j.append(append([]byte{srAccept}, body...), true)
}

// recordState journals a state transition. Terminal states are fsynced
// (the transition must survive anything that happens after clients see
// it); running/checkpointing are advisory.
func (j *journal) recordState(id string, to jobState, errMsg string) error {
	body, err := json.Marshal(stateRecord{ID: id, State: to, Err: errMsg})
	if err != nil {
		return fmt.Errorf("serve: encoding state: %w", err)
	}
	return j.append(append([]byte{srState}, body...), to.Terminal())
}

// recordProgress journals one computed chunk's scores (a wal score block:
// raw float64 bits, the bit-exactness contract) behind the job id, fsynced
// before the executor moves on.
func (j *journal) recordProgress(id string, v0, v int, scores []core.VoxelScore) error {
	payload := append(binary.LittleEndian.AppendUint32([]byte{srProgress}, uint32(len(id))), id...)
	return j.append(wal.AppendScoreBlock(payload, v0, v, scores), true)
}

// decodeProgress parses an srProgress payload.
func decodeProgress(payload []byte) (id string, v0, v int, scores []core.VoxelScore, err error) {
	if len(payload) < 5 {
		return "", 0, 0, nil, errors.New("short progress record")
	}
	idLen := int(binary.LittleEndian.Uint32(payload[1:]))
	if idLen < 0 || idLen > len(payload)-5 {
		return "", 0, 0, nil, errors.New("short progress record")
	}
	v0, v, scores, err = wal.DecodeScoreBlock(payload[5+idLen:])
	if err != nil {
		return "", 0, 0, nil, fmt.Errorf("progress record: %w", err)
	}
	return string(payload[5 : 5+idLen]), v0, v, scores, nil
}

// close fsyncs and releases the journal.
func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}

// floorRecord is an srFloor payload: id numbers up to seq are taken.
func floorRecord(seq int) []byte {
	return binary.LittleEndian.AppendUint64([]byte{srFloor}, uint64(seq))
}

// reduce replaces the closed journal by its id floor alone, seq (only safe
// once every job is terminal): the next service in the directory lists no
// job and hands out no id up to seq again.
func (j *journal) reduce(seq int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Rewrite(floorRecord(seq))
}
