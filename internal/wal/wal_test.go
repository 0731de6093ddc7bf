package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"fcma/internal/chaos"
)

const testMagic = "TESTWAL1"

func openCollect(t *testing.T, fsys chaos.FS, path string) (*Log, [][]byte) {
	t.Helper()
	var got [][]byte
	l, err := Open(fsys, path, testMagic, 1<<20, func(p []byte) error {
		cp := make([]byte, len(p))
		copy(cp, p)
		got = append(got, cp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, got
}

// TestRoundTrip proves appended records replay in order, byte for byte.
func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _ := openCollect(t, nil, path)
	recs := [][]byte{{1}, {2, 3, 4}, {}, []byte("hello")}
	for i, r := range recs {
		sync := i%2 == 0
		n, err := l.Append(r, sync)
		if err != nil {
			t.Fatal(err)
		}
		if n != 8+len(r) {
			t.Fatalf("Append returned %d frame bytes for a %d-byte payload", n, len(r))
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r, got := openCollect(t, nil, path)
	defer r.Close()
	if r.Truncated() {
		t.Fatal("clean log reported Truncated")
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if string(got[i]) != string(recs[i]) {
			t.Fatalf("record %d replayed as %q, want %q", i, got[i], recs[i])
		}
	}
}

// TestTornTailTruncatedAndAppendable proves a torn final frame is cut off
// and the log accepts new appends right at the cut.
func TestTornTailTruncatedAndAppendable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _ := openCollect(t, nil, path)
	if _, err := l.Append([]byte("intact"), true); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("will be torn"), true); err != nil {
		t.Fatal(err)
	}
	l.Abort()

	// Tear the last frame mid-body.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	r, got := openCollect(t, nil, path)
	if !r.Truncated() {
		t.Fatal("torn tail not reported by Truncated")
	}
	if len(got) != 1 || string(got[0]) != "intact" {
		t.Fatalf("replayed %q, want only the intact record", got)
	}
	if _, err := r.Append([]byte("after recovery"), true); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, got2 := openCollect(t, nil, path)
	defer r2.Close()
	if r2.Truncated() {
		t.Fatal("log truncated again after a clean recovery append")
	}
	if len(got2) != 2 || string(got2[1]) != "after recovery" {
		t.Fatalf("post-recovery replay = %q, want the intact + recovery records", got2)
	}
}

// TestCRCCorruptionTruncates proves a bit-flipped record and everything
// after it are discarded, never applied.
func TestCRCCorruptionTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _ := openCollect(t, nil, path)
	if _, err := l.Append([]byte("good"), true); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("flipme"), true); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("shadowed"), true); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the second record's payload ("flipme" starts after
	// magic + frame1 (8+4) + frame2 header (8)).
	data[len(testMagic)+12+8] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r, got := openCollect(t, nil, path)
	defer r.Close()
	if !r.Truncated() {
		t.Fatal("CRC mismatch not reported by Truncated")
	}
	if len(got) != 1 || string(got[0]) != "good" {
		t.Fatalf("replayed %q; the corrupt record and its shadow must be discarded", got)
	}
}

// TestBadMagicRefused proves a foreign file is refused, not truncated to
// nothing — truncating somebody else's data would destroy it.
func TestBadMagicRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	if err := os.WriteFile(path, []byte("NOTAWAL0 some bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(nil, path, testMagic, 1<<20, func([]byte) error { return nil }); err == nil {
		t.Fatal("Open accepted a file with the wrong magic")
	}
}

// TestBadMagicLength proves the 8-byte magic contract is enforced at the
// API boundary instead of silently framing a different header.
func TestBadMagicLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	if _, err := Open(nil, path, "SHORT", 1<<20, func([]byte) error { return nil }); err == nil {
		t.Fatal("Open accepted a non-8-byte magic")
	}
}

// TestApplyErrorFailsOpen proves an intact, CRC-verified record the
// owner rejects is NOT treated as corruption: Open fails with an
// *ApplyError and the file is left untouched, so records after the
// rejected one (including fsynced terminal states) are never silently
// discarded.
func TestApplyErrorFailsOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _ := openCollect(t, nil, path)
	for _, p := range [][]byte{{1}, {99}, {2}} {
		if _, err := l.Append(p, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	rejecting := func(p []byte) error {
		if p[0] == 99 {
			return errors.New("unknown record kind")
		}
		return nil
	}
	_, err := Open(nil, path, testMagic, 1<<20, rejecting)
	if err == nil {
		t.Fatal("Open succeeded despite a rejected record")
	}
	var aerr *ApplyError
	if !errors.As(err, &aerr) {
		t.Fatalf("Open error = %v, want *ApplyError", err)
	}
	if aerr.Offset != int64(len(testMagic)+8+1) {
		t.Fatalf("ApplyError.Offset = %d, want the rejected frame's start", aerr.Offset)
	}

	// The file must be intact: an owner that understands the record (a
	// fixed binary, say) replays everything, nothing truncated.
	r, got := openCollect(t, nil, path)
	defer r.Close()
	if r.Truncated() {
		t.Fatal("apply rejection truncated the log")
	}
	if len(got) != 3 {
		t.Fatalf("replayed %d records after rejection, want all 3 preserved", len(got))
	}
}

// TestImplausibleLengthTruncates proves a corrupt length header cannot
// make replay allocate unbounded memory; it is treated as damage.
func TestImplausibleLengthTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _ := openCollect(t, nil, path)
	if _, err := l.Append([]byte("ok"), true); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A frame header claiming a 4 GiB payload.
	if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, got := openCollect(t, nil, path)
	defer r.Close()
	if !r.Truncated() || len(got) != 1 {
		t.Fatalf("truncated=%v replayed=%d; implausible length must be cut", r.Truncated(), len(got))
	}
}

// TestChaosTornAppendRecovers proves the chaos-FS torn-write seam and the
// replay truncation compose: an injected tear surfaces as an append
// error, and reopening recovers everything before it.
func TestChaosTornAppendRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _ := openCollect(t, nil, path)
	if _, err := l.Append([]byte("durable"), true); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	plan, err := chaos.NewPlan(chaos.Config{Seed: 11, FS: chaos.FSConfig{TornWrite: 1.0}})
	if err != nil {
		t.Fatal(err)
	}
	lc, _ := openCollect(t, plan.FS(chaos.OS()), path)
	if _, err := lc.Append([]byte("torn away"), true); err == nil {
		t.Fatal("torn append reported success")
	} else if !errors.Is(err, syscall.EIO) {
		t.Fatalf("torn append error = %v, want the injected EIO", err)
	}
	lc.Abort()

	r, got := openCollect(t, nil, path)
	defer r.Close()
	if len(got) != 1 || string(got[0]) != "durable" {
		t.Fatalf("replayed %q, want only the pre-tear record", got)
	}
}

// TestCreateSurvivesRenameFault proves atomic creation: a failed rename
// leaves no file behind and a healthy retry starts clean.
func TestCreateSurvivesRenameFault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	plan, err := chaos.NewPlan(chaos.Config{Seed: 3, FS: chaos.FSConfig{RenameFail: 1.0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(plan.FS(chaos.OS()), path, testMagic, 1<<20, func([]byte) error { return nil }); err == nil {
		t.Fatal("Open succeeded despite the injected rename fault")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed create left %s behind (stat err %v)", path, err)
	}
	l, _ := openCollect(t, nil, path)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// flakyFS fails one call on command: armed with "write", the next
// File.Write persists half its bytes and fails, the shape of a real torn
// append; armed with "sync", the next File.Sync fails. Then the fault
// disarms, so a log that kept writing would succeed.
type flakyFS struct {
	chaos.FS
	armed string
}

func (f *flakyFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &flakyFile{File: file, fs: f}, nil
}

type flakyFile struct {
	chaos.File
	fs *flakyFS
}

func (f *flakyFile) Write(p []byte) (int, error) {
	if f.fs.armed == "write" {
		f.fs.armed = ""
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errors.New("injected torn write")
	}
	return f.File.Write(p)
}

func (f *flakyFile) Sync() error {
	if f.fs.armed == "sync" {
		f.fs.armed = ""
		return errors.New("injected sync failure")
	}
	return f.File.Sync()
}

// TestFirstFailureIsKept proves a failed append stops the log: every later
// Append, Sync and Close returns the first error and the file does not
// grow. A reopen replays the frames written whole before the failure and
// cuts the torn half-frame a failed write left (a failed sync's frame was
// written whole, so it replays).
func TestFirstFailureIsKept(t *testing.T) {
	for _, tc := range []struct {
		fault string
		want  []string
		torn  bool
	}{
		{"write", []string{"one", "two"}, true},
		{"sync", []string{"one", "two", "failing"}, false},
	} {
		t.Run(tc.fault, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "t.wal")
			fsys := &flakyFS{FS: chaos.OS()}
			l, _ := openCollect(t, fsys, path)
			for _, r := range []string{"one", "two"} {
				if _, err := l.Append([]byte(r), true); err != nil {
					t.Fatal(err)
				}
			}
			fsys.armed = tc.fault
			_, first := l.Append([]byte("failing"), true)
			if first == nil {
				t.Fatalf("append under a failing %s reported success", tc.fault)
			}
			size := fileSize(t, path)
			for range 3 {
				if _, err := l.Append([]byte("later"), true); err != first {
					t.Fatalf("append after the failure = %v, want the first error %v", err, first)
				}
				if err := l.Sync(); err != first {
					t.Fatalf("sync after the failure = %v, want the first error %v", err, first)
				}
			}
			if err := l.Close(); err != first {
				t.Fatalf("close after the failure = %v, want the first error %v", err, first)
			}
			if got := fileSize(t, path); got != size {
				t.Fatalf("log grew from %d to %d bytes after its first failure", size, got)
			}

			r, got := openCollect(t, nil, path)
			defer r.Close()
			if r.Truncated() != tc.torn {
				t.Fatalf("Truncated() = %v, want %v", r.Truncated(), tc.torn)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("replayed %q, want %q", got, tc.want)
			}
			for i := range tc.want {
				if string(got[i]) != tc.want[i] {
					t.Fatalf("replayed %q, want %q", got, tc.want)
				}
			}
		})
	}
}

// fileSize is the size of the file at path.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// intactPrefix walks frames the slow way, sharing no code with replay: the
// payloads of every leading frame whose length is plausible, whose body is
// all there and whose CRC matches, and how many bytes they span.
func intactPrefix(data []byte, maxRecord uint32) (payloads [][]byte, span int) {
	for len(data)-span >= 8 {
		n := binary.LittleEndian.Uint32(data[span:])
		if n > maxRecord || uint64(span)+8+uint64(n) > uint64(len(data)) {
			break
		}
		payload := data[span+8 : span+8+int(n)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[span+4:]) {
			break
		}
		payloads = append(payloads, payload)
		span += 8 + int(n)
	}
	return payloads, span
}

// FuzzWALReplay: whatever bytes follow a valid magic, Open applies exactly
// the intact leading frames, in order, reports a cut iff bytes were left
// over, and leaves behind a file that a second Open replays to the same
// records without cutting anything.
func FuzzWALReplay(f *testing.F) {
	frame := func(payload string) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE([]byte(payload)))
		return append(b, payload...)
	}
	two := append(frame("first"), frame("")...)
	f.Add(two)
	f.Add(two[:len(two)-3])
	f.Add(append(append([]byte(nil), two...), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0))
	f.Add(append(frame("ok"), 2, 0, 0, 0, 0, 0, 0, 0, 'n', 'o'))
	f.Add([]byte{})
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil))) // replay warns once per cut tail
	f.Cleanup(func() { slog.SetDefault(prev) })
	const maxRecord = 1 << 10
	path := filepath.Join(f.TempDir(), "f.wal") // one file per fuzz worker, rewritten per input
	f.Fuzz(func(t *testing.T, tail []byte) {
		if err := os.WriteFile(path, append([]byte(testMagic), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		want, span := intactPrefix(tail, maxRecord)
		for pass, wantCut := range []bool{span < len(tail), false} {
			var got [][]byte
			l, err := Open(nil, path, testMagic, maxRecord, func(p []byte) error {
				got = append(got, append([]byte(nil), p...))
				return nil
			})
			if err != nil {
				t.Fatalf("open %d: %v", pass, err)
			}
			if l.Truncated() != wantCut {
				t.Fatalf("open %d: Truncated() = %v with %d of %d bytes intact", pass, l.Truncated(), span, len(tail))
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("open %d applied %d records, want %d", pass, len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("open %d record %d = %x, want %x", pass, i, got[i], want[i])
				}
			}
		}
	})
}
