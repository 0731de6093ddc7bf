package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"fcma/internal/chaos"
	"fcma/internal/core"
	"fcma/internal/wal"
)

// TestJournalRoundTripBitExact proves completion records rehydrate with
// the raw float64 bits intact — the property the resumed master's
// bit-exactness guarantee rests on (and the one a %.6f score CSV cannot
// give).
func TestJournalRoundTripBitExact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jnl")
	j, err := OpenJournal(nil, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	scores := []core.VoxelScore{
		{Voxel: 0, Accuracy: 1.0 / 3.0},
		{Voxel: 1, Accuracy: 0.1 + 0.2}, // not representable at 6 decimals
		{Voxel: 2, Accuracy: 0.7499999999999991},
	}
	if err := j.RecordComplete(0, 3, scores); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenJournal(nil, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Truncated() {
		t.Fatal("clean journal reported a truncated tail")
	}
	if r.Done() != 3 {
		t.Fatalf("replay: done=%d, want 3", r.Done())
	}
	got := map[int]float64{}
	for _, s := range r.Scores() {
		got[s.Voxel] = s.Accuracy
	}
	for _, s := range scores {
		if got[s.Voxel] != s.Accuracy {
			t.Fatalf("voxel %d: accuracy %x, want bit-exact %x", s.Voxel, got[s.Voxel], s.Accuracy)
		}
	}
}

// TestJournalTornTailRecovery crashes mid-append (simulated by writing a
// partial frame) and proves reopening truncates the torn tail, keeps
// every intact record, and accepts new appends at the cut.
func TestJournalTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jnl")
	j, err := OpenJournal(nil, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.RecordComplete(0, 2, []core.VoxelScore{{Voxel: 0, Accuracy: 0.5}, {Voxel: 1, Accuracy: 0.75}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear: a frame header promising more bytes than exist.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 0x12, 0x34}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := OpenJournal(nil, path, nil)
	if err != nil {
		t.Fatalf("torn journal must recover, got %v", err)
	}
	if !r.Truncated() {
		t.Fatal("recovery did not report the torn tail")
	}
	if r.Done() != 2 {
		t.Fatalf("recovered %d voxels, want the 2 intact ones", r.Done())
	}
	// The journal must be appendable right where recovery cut it.
	if err := r.RecordComplete(2, 1, []core.VoxelScore{{Voxel: 2, Accuracy: 0.25}}); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenJournal(nil, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Truncated() || r2.Done() != 3 {
		t.Fatalf("post-recovery journal: truncated=%v done=%d, want clean with 3", r2.Truncated(), r2.Done())
	}
}

// TestJournalCorruptCRCRecovery flips a payload byte and proves the
// damaged record (and everything after it) is discarded rather than
// trusted.
func TestJournalCorruptCRCRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jnl")
	j, err := OpenJournal(nil, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.RecordComplete(0, 1, []core.VoxelScore{{Voxel: 0, Accuracy: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if err := j.RecordComplete(1, 1, []core.VoxelScore{{Voxel: 1, Accuracy: 0.75}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the accuracy bits of the SECOND record: its CRC no longer
	// matches, so replay must stop before it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := OpenJournal(nil, path, nil)
	if err != nil {
		t.Fatalf("corrupt-CRC journal must recover, got %v", err)
	}
	defer r.Close()
	if !r.Truncated() {
		t.Fatal("recovery did not report the corrupt record")
	}
	if got := journaledVoxels(r); len(got) != 1 || !got[0] {
		t.Fatalf("recovered voxels %v; the corrupt record must not be trusted", got)
	}
}

// TestJournalBadMagicRefuses proves a non-journal file is rejected
// outright instead of being "recovered" into an empty journal.
func TestJournalBadMagicRefuses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notajournal")
	if err := os.WriteFile(path, []byte("voxel,accuracy\n1,0.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(nil, path, nil); err == nil {
		t.Fatal("journal opened a file with the wrong magic")
	}
}

// TestJournalTornWriteThroughChaosFS drives the chaosfs seam end to end:
// a completion append torn by the fault plan surfaces as an error (the
// master treats it as a crash), and reopening on a clean filesystem
// recovers exactly the records that were durably synced before the tear.
func TestJournalTornWriteThroughChaosFS(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jnl")
	j, err := OpenJournal(nil, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.RecordComplete(0, 1, []core.VoxelScore{{Voxel: 0, Accuracy: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	plan, err := chaos.NewPlan(chaos.Config{Seed: 5, FS: chaos.FSConfig{TornWrite: 1}})
	if err != nil {
		t.Fatal(err)
	}
	jc, err := OpenJournal(plan.FS(chaos.OS()), path, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = jc.RecordComplete(1, 1, []core.VoxelScore{{Voxel: 1, Accuracy: 0.75}})
	if err == nil {
		t.Fatal("torn completion append reported success")
	}
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("torn append error = %v, want the injected EIO", err)
	}
	jc.log.Abort() // simulate the crash: no clean Close/Sync

	r, err := OpenJournal(nil, path, nil)
	if err != nil {
		t.Fatalf("journal with a chaos-torn tail must recover, got %v", err)
	}
	defer r.Close()
	if got := journaledVoxels(r); len(got) != 1 || !got[0] {
		t.Fatalf("recovered voxels %v; only the pre-tear record may survive", got)
	}
}

// TestJournalCreateSurvivesRenameFault proves atomic creation: when the
// chaos plan fails the rename, no half-created journal is left behind and
// a retry on a healthy filesystem starts clean.
func TestJournalCreateSurvivesRenameFault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jnl")
	plan, err := chaos.NewPlan(chaos.Config{Seed: 7, FS: chaos.FSConfig{RenameFail: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(plan.FS(chaos.OS()), path, nil); err == nil {
		t.Fatal("journal creation succeeded through a failed rename")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed creation left a journal behind: %v", err)
	}
	j, err := OpenJournal(nil, path, nil)
	if err != nil {
		t.Fatalf("retry on a healthy filesystem: %v", err)
	}
	j.Close()
}

// copyTestdata copies a checked-in journal into a temp dir (opening one
// may truncate it) and returns the copy's path.
func copyTestdata(t testing.TB, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestJournalReplaysParentEncoding pins the on-disk format across the move
// of the score-block codec into internal/wal: testdata/pr22.jnl was written
// by the PR 22 encoder (three assignments, two completions of three voxels)
// and must replay to the same state, and re-encoding that state must
// reproduce the file's completion frames byte for byte. Assignment records
// are no longer written, but replay still accepts them.
func TestJournalReplaysParentEncoding(t *testing.T) {
	path := copyTestdata(t, "pr22.jnl")
	want := []core.VoxelScore{
		{Voxel: 0, Accuracy: 1.0 / 3.0}, {Voxel: 1, Accuracy: 0.1 + 0.2}, {Voxel: 2, Accuracy: 5.0 / 6.0},
		{Voxel: 3, Accuracy: 0.7499999999999991}, {Voxel: 4, Accuracy: 1}, {Voxel: 5, Accuracy: 0},
	}
	j, err := OpenJournal(nil, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if j.Truncated() || j.Done() != 6 {
		t.Fatalf("replay: truncated=%v done=%d", j.Truncated(), j.Done())
	}
	got := map[int]float64{}
	for _, s := range j.Scores() {
		got[s.Voxel] = s.Accuracy
	}
	for _, s := range want {
		if acc, ok := got[s.Voxel]; !ok || math.Float64bits(acc) != math.Float64bits(s.Accuracy) {
			t.Fatalf("voxel %d replayed as %x (present=%v), want %x", s.Voxel, math.Float64bits(acc), ok, math.Float64bits(s.Accuracy))
		}
	}
	j.Close()

	// The same records through today's encoder give the same bytes.
	fresh := filepath.Join(t.TempDir(), "fresh.jnl")
	f, err := OpenJournal(nil, fresh, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []error{f.RecordComplete(0, 3, want[:3]), f.RecordComplete(3, 3, want[3:]), f.Close()} {
		if step != nil {
			t.Fatal(step)
		}
	}
	var old [][]byte
	for _, frame := range journalFrames(t, path) {
		if frame[8] == jrComplete {
			old = append(old, frame)
		}
	}
	now := journalFrames(t, fresh)
	if !bytes.Equal(bytes.Join(old, nil), bytes.Join(now, nil)) {
		t.Fatalf("re-encoded completions differ from the PR 22 file's:\n old %x\n new %x", old, now)
	}
}

// FuzzJournalApply feeds arbitrary record payloads to the replay fold: it
// must reject or accept without panicking, and what it accepts must leave a
// state the master can seed from — every replayed voxel is one some
// completion record claimed to cover.
func FuzzJournalApply(f *testing.F) {
	f.Add([]byte{jrAssign, 0, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0})
	f.Add(wal.AppendScoreBlock([]byte{jrComplete}, 3, 3, []core.VoxelScore{{Voxel: 3, Accuracy: 0.75}, {Voxel: 5, Accuracy: 1}}))
	f.Add(wal.AppendScoreBlock([]byte{jrComplete}, 0, 1, []core.VoxelScore{{Voxel: 7, Accuracy: 0.5}}))
	f.Add([]byte{jrComplete, 0, 0, 0, 0, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{9})
	f.Add([]byte{})
	for _, payload := range testdataRecords(f) {
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		j := &Journal{completed: make(map[int]float64)}
		if err := j.apply(payload); err != nil {
			if len(j.completed) != 0 {
				t.Fatalf("rejected payload %x still changed the replay state", payload)
			}
			return
		}
		if payload[0] != jrComplete {
			if len(j.completed) != 0 {
				t.Fatalf("accepted assignment %x booked %d voxels; it books nothing", payload, len(j.completed))
			}
			return
		}
		v0, v, _, err := wal.DecodeScoreBlock(payload[1:])
		if err != nil {
			t.Fatalf("apply accepted a block the codec rejects: %v", err)
		}
		for voxel := range j.completed {
			if voxel < v0 || voxel >= v0+v {
				t.Fatalf("replayed voxel %d outside the record's range [%d,%d)", voxel, v0, v0+v)
			}
		}
	})
}

// testdataRecords returns the record payloads of testdata/pr22.jnl, the
// fuzzer's corpus of records a real run wrote.
func testdataRecords(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, frame := range journalFrames(t, filepath.Join("testdata", "pr22.jnl")) {
		out = append(out, frame[8:])
	}
	return out
}

// journalFrames returns the frames of the journal at path, each with its
// 8-byte header (payload length, CRC) and its payload.
func journalFrames(t testing.TB, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for off := len(journalMagic); off+8 <= len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		out = append(out, data[off:off+8+n])
		off += 8 + n
	}
	return out
}
