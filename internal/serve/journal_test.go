package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"fcma/internal/chaos"
	"fcma/internal/core"
	"fcma/internal/obs"
	"fcma/internal/wal"
)

// jnlPath returns a journal path in a fresh temp dir.
func jnlPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "jobs.jnl")
}

// testStore returns an empty dataset store in a fresh temp dir.
func testStore(t testing.TB) *datasetStore {
	t.Helper()
	st, err := newDatasetStore(t.TempDir(), chaos.OS(), 0, 0, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// mustOpen opens a serve journal or fails the test.
func mustOpen(t *testing.T, path string, reg *obs.Registry) *journal {
	t.Helper()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	j, err := openJournal(chaos.OS(), path, reg, testStore(t), func(error) {})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// awkwardScores holds float64 values with no short decimal form, so a
// replay that round-trips through anything but raw bits would drift.
var awkwardScores = []core.VoxelScore{
	{Voxel: 0, Accuracy: 1.0 / 3.0},
	{Voxel: 1, Accuracy: math.Nextafter(0.7, 1)},
	{Voxel: 2, Accuracy: 0.1 + 0.2},
}

// TestJournalReplayRoundTrip writes a full job lifecycle and proves a
// reopened journal reconstructs it bit-exactly.
func TestJournalReplayRoundTrip(t *testing.T) {
	path := jnlPath(t)
	j := mustOpen(t, path, nil)
	spec := JobSpec{Synthetic: "face-scene", Scale: 0.001, Tenant: "alice", TopK: 2}
	if err := j.recordAccept("job-00000042", spec); err != nil {
		t.Fatal(err)
	}
	if err := j.recordState("job-00000042", stateRunning, ""); err != nil {
		t.Fatal(err)
	}
	if err := j.recordProgress("job-00000042", 0, 3, awkwardScores); err != nil {
		t.Fatal(err)
	}
	if err := j.recordState("job-00000042", stateDone, ""); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, path, nil)
	defer r.close()
	if r.maxSeq != 43 {
		t.Fatalf("maxSeq = %d, want 43: the accepted 42 and the id floor the reopen journals", r.maxSeq)
	}
	job := r.jobs["job-00000042"]
	if job == nil || job.State != stateDone {
		t.Fatalf("replayed job = %+v", job)
	}
	if job.Spec != spec {
		t.Fatalf("replayed spec = %+v, want %+v", job.Spec, spec)
	}
	// finalize ran at replay (TopK=2 keeps the two best) with raw bits.
	if len(job.result) != 2 {
		t.Fatalf("replayed result = %+v, want top 2", job.result)
	}
	for _, got := range job.result {
		want := awkwardScores[got.Voxel].Accuracy
		if math.Float64bits(got.Accuracy) != math.Float64bits(want) {
			t.Fatalf("voxel %d replayed %x, want %x",
				got.Voxel, math.Float64bits(got.Accuracy), math.Float64bits(want))
		}
	}
}

// TestJournalNormalizesInFlightStates proves jobs a crash caught running
// or checkpointing replay as accepted, keeping their durable chunks.
func TestJournalNormalizesInFlightStates(t *testing.T) {
	path := jnlPath(t)
	j := mustOpen(t, path, nil)
	for i, st := range []jobState{stateRunning, stateCheckpointing} {
		id := []string{"job-00000001", "job-00000002"}[i]
		if err := j.recordAccept(id, JobSpec{Synthetic: "face-scene"}); err != nil {
			t.Fatal(err)
		}
		if err := j.recordState(id, stateRunning, ""); err != nil {
			t.Fatal(err)
		}
		if st == stateCheckpointing {
			if err := j.recordState(id, stateCheckpointing, ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := j.recordProgress("job-00000001", 0, 1, awkwardScores[:1]); err != nil {
		t.Fatal(err)
	}
	j.log.Abort() // crash-shaped close

	r := mustOpen(t, path, nil)
	defer r.close()
	for _, id := range []string{"job-00000001", "job-00000002"} {
		if got := r.jobs[id].State; got != stateAccepted {
			t.Fatalf("%s replayed as %s, want accepted", id, got)
		}
	}
	if r.jobs["job-00000001"].progress() != 1 {
		t.Fatal("durable chunk lost in normalization")
	}
}

// TestJournalIdempotentRunningAcrossIncarnations proves a journal holding
// several incarnations' worth of running transitions for the same job
// replays cleanly (each restart re-marks a resumed job running).
func TestJournalIdempotentRunningAcrossIncarnations(t *testing.T) {
	path := jnlPath(t)
	j := mustOpen(t, path, nil)
	if err := j.recordAccept("job-00000001", JobSpec{Synthetic: "face-scene"}); err != nil {
		t.Fatal(err)
	}
	if err := j.recordState("job-00000001", stateRunning, ""); err != nil {
		t.Fatal(err)
	}
	j.log.Abort()

	// Second incarnation: replay (running → accepted), mark running again.
	second := mustOpen(t, path, nil)
	if err := second.recordState("job-00000001", stateRunning, ""); err != nil {
		t.Fatal(err)
	}
	if err := second.recordState("job-00000001", stateDone, ""); err != nil {
		t.Fatal(err)
	}
	if err := second.close(); err != nil {
		t.Fatal(err)
	}

	// Third replay sees running, running, done — and no torn-tail recovery.
	reg := obs.NewRegistry()
	third := mustOpen(t, path, reg)
	defer third.close()
	if got := third.jobs["job-00000001"].State; got != stateDone {
		t.Fatalf("job replayed as %s, want done", got)
	}
	if n := reg.Counter("serve_journal_torn_recoveries_total").Value(); n != 0 {
		t.Fatalf("clean multi-incarnation journal counted %d torn recoveries", n)
	}
}

// TestJournalIllegalTransitionFailsOpen proves replay refuses a record
// that violates the state machine instead of truncating it away: the
// record is physically intact (CRC-verified), so discarding it — and
// every record after it, possibly fsynced terminal states — could make
// completed jobs re-run. The service fails to start, loudly, and the
// journal file is left untouched for inspection.
func TestJournalIllegalTransitionFailsOpen(t *testing.T) {
	path := jnlPath(t)
	j := mustOpen(t, path, nil)
	if err := j.recordAccept("job-00000001", JobSpec{Synthetic: "face-scene"}); err != nil {
		t.Fatal(err)
	}
	if err := j.recordState("job-00000001", stateRunning, ""); err != nil {
		t.Fatal(err)
	}
	if err := j.recordState("job-00000001", stateDone, ""); err != nil {
		t.Fatal(err)
	}
	// recordState does not re-check legality (the Service does); write a
	// done → running edge straight through to simulate version/logic skew.
	if err := j.recordState("job-00000001", stateRunning, ""); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := openJournal(chaos.OS(), path, obs.NewRegistry(), testStore(t), func(error) {}); err == nil {
		t.Fatal("openJournal accepted a journal with an illegal transition")
	} else {
		var aerr *wal.ApplyError
		if !errors.As(err, &aerr) {
			t.Fatalf("openJournal error = %v, want *wal.ApplyError", err)
		}
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("rejected journal was modified: %d -> %d bytes", before.Size(), after.Size())
	}
}

// TestJournalTornTailRecovers proves a physically torn final frame is
// discarded and every earlier record survives.
func TestJournalTornTailRecovers(t *testing.T) {
	path := jnlPath(t)
	j := mustOpen(t, path, nil)
	if err := j.recordAccept("job-00000001", JobSpec{Synthetic: "face-scene"}); err != nil {
		t.Fatal(err)
	}
	if err := j.recordProgress("job-00000001", 0, 3, awkwardScores); err != nil {
		t.Fatal(err)
	}
	if err := j.recordProgress("job-00000001", 3, 3, awkwardScores); err != nil {
		t.Fatal(err)
	}
	j.log.Abort()

	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	r := mustOpen(t, path, reg)
	defer r.close()
	job := r.jobs["job-00000001"]
	if job == nil {
		t.Fatal("accept record lost")
	}
	if !job.chunks[0] || job.chunks[3] {
		t.Fatalf("chunks after torn replay = %v, want only v0=0", job.chunks)
	}
	if n := reg.Counter("serve_journal_torn_recoveries_total").Value(); n != 1 {
		t.Fatalf("torn recoveries = %d, want 1", n)
	}
}

// TestJournalReplaysParentEncoding pins the on-disk format across the move
// of the score-block codec into internal/wal: testdata/pr22.jnl was written
// by the PR 22 encoder (two jobs; a three-score chunk for the first, an
// empty chunk at voxel 16 for the second) and must replay to the same
// state, and today's encoder must write a progress record with the same
// bytes.
func TestJournalReplaysParentEncoding(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "pr22.jnl"))
	if err != nil {
		t.Fatal(err)
	}
	path := jnlPath(t)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, path, nil)
	defer r.close()
	if r.log.Truncated() || len(r.jobs) != 2 || r.maxSeq != 44 { // 43 accepted, 44 the id floor the open journals
		t.Fatalf("replay: truncated=%v jobs=%d maxSeq=%d", r.log.Truncated(), len(r.jobs), r.maxSeq)
	}
	done := r.jobs["job-00000042"]
	if done == nil || done.State != stateDone || done.Spec.Tenant != "alice" || len(done.scores) != 3 || !done.chunks[0] {
		t.Fatalf("job-00000042 replayed as %+v", done)
	}
	for _, s := range awkwardScores {
		if got := done.scores[s.Voxel]; math.Float64bits(got) != math.Float64bits(s.Accuracy) {
			t.Fatalf("voxel %d replayed %x, want %x", s.Voxel, math.Float64bits(got), math.Float64bits(s.Accuracy))
		}
	}
	// Caught running by the "crash", so handed back to the queue.
	open := r.jobs["job-00000043"]
	if open == nil || open.State != stateAccepted || !open.chunks[16] || open.totalVoxels != 18 || len(open.scores) != 0 {
		t.Fatalf("job-00000043 replayed as %+v", open)
	}

	fresh := jnlPath(t)
	j := mustOpen(t, fresh, nil)
	if err := j.recordProgress("job-00000042", 0, 3, awkwardScores); err != nil {
		t.Fatal(err)
	}
	j.log.Abort()
	now, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if frame := now[len(serveMagic):]; !bytes.Contains(data, frame) {
		t.Fatalf("today's progress frame %x is not in the PR 22 file", frame)
	}
}

// FuzzJournalApply feeds arbitrary record payloads to the replay fold of a
// journal that already knows one job: it must reject or accept without
// panicking, and what it accepts must leave job state a resumed server can
// run from — every spec one validate accepts, every score inside the voxel
// range its job claims.
func FuzzJournalApply(f *testing.F) {
	const id = "job-00000001"
	progress := func(v0, v int, scores []core.VoxelScore) []byte {
		p := append(binary.LittleEndian.AppendUint32([]byte{srProgress}, uint32(len(id))), id...)
		return wal.AppendScoreBlock(p, v0, v, scores)
	}
	f.Add(progress(0, 3, awkwardScores))
	f.Add(progress(16, 2, nil))
	f.Add(progress(0, 1, []core.VoxelScore{{Voxel: 9, Accuracy: 0.5}}))
	f.Add([]byte(string(rune(srState)) + `{"id":"job-00000001","state":"running"}`))
	f.Add([]byte(string(rune(srAccept)) + `{"id":"job-00000002","spec":{"synthetic":"attention"}}`))
	f.Add([]byte{srProgress, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	for _, payload := range testdataRecords(f) {
		f.Add(payload)
	}
	f.Add([]byte(string(rune(srAccept)) + `{"id":"job-00000002","spec":{"dataset":"../jobs.jnl"}}`))
	st := testStore(f)
	f.Fuzz(func(t *testing.T, payload []byte) {
		known, err := JobSpec{Synthetic: "face-scene"}.validate(st)
		if err != nil {
			t.Fatal(err)
		}
		known.ID = id
		j := &journal{jobs: map[string]*jobRecord{id: known}, store: st}
		if err := j.apply(payload); err != nil {
			return
		}
		for _, job := range j.jobs {
			if !job.State.valid() {
				t.Fatalf("payload %x left %s in state %q", payload, job.ID, job.State)
			}
			if _, err := job.Spec.validate(st); err != nil {
				t.Fatalf("payload %x replayed %s with a spec validate refuses: %v", payload, job.ID, err)
			}
			for v := range job.scores {
				if v < 0 || v >= job.totalVoxels {
					t.Fatalf("payload %x scored voxel %d of %s, whose chunks end at %d", payload, v, job.ID, job.totalVoxels)
				}
			}
		}
	})
}

// testdataRecords returns the record payloads of testdata/pr22.jnl, the
// fuzzer's corpus of records a real run wrote.
func testdataRecords(t testing.TB) [][]byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "pr22.jnl"))
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for off := len(serveMagic); off+8 <= len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		out = append(out, data[off+8:off+8+n])
		off += 8 + n
	}
	return out
}
