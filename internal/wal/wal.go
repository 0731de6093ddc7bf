// Package wal is the repo's one write-ahead-log framing: an 8-byte magic
// header followed by self-delimiting CRC-framed records,
//
//	len uint32 | crc32(payload) uint32 | payload
//
// little endian, CRC-32 (IEEE), payloads versioned by the magic. It was
// extracted from the cluster master's journal (PR 6) so the job service's
// journal — and any future durable log — shares one recovery discipline
// instead of re-deriving it:
//
//   - creation is atomic (temp + fsync + rename + dir fsync via
//     chaos.WriteFileAtomic): a crash mid-create leaves either no log or
//     a valid empty one, never a file that later refuses to open;
//   - every append goes through the chaos.FS seam, so fault-injection
//     soaks can tear exactly the writes a real crash would tear;
//   - replay on open walks the records through a caller-supplied apply
//     function and truncates at the first physically bad frame (short
//     header, torn body, implausible length, CRC mismatch): everything
//     before the damage is trusted, everything after it is recomputed by
//     the owner. A record the owner's apply function rejects is NOT
//     damage — it is intact, CRC-verified bytes the owner no longer
//     understands (version or logic skew) — so Open fails with an
//     *ApplyError instead of truncating, which would silently discard
//     every later record including fsynced terminal states.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"time"

	"fcma/internal/chaos"
)

// Log is an open write-ahead log. It is not safe for concurrent use; the
// owner serializes appends (the cluster master's single loop, the job
// service's journal mutex).
type Log struct {
	fsys      chaos.FS
	f         chaos.File
	path      string
	magic     string
	maxRecord uint32
	truncated bool
	// failed is the first Write or Sync error. Once it is set, Append and
	// Sync return it and touch the file no more.
	failed error
	// m carries the log's instruments when opened via OpenObserved; nil
	// (plain Open) records nothing.
	m *walMetrics
}

// Open opens (or atomically creates) the log at path and replays every
// intact record through apply. magic must be exactly 8 bytes and is the
// format version stamp; maxRecord caps one payload's length so a corrupt
// length header cannot OOM the process. A torn or corrupt tail is
// truncated — not an error — and reported by Truncated; a file that does
// not start with magic is refused outright; an intact record that apply
// rejects fails Open with an *ApplyError, leaving the file untouched
// (the owner's partially replayed apply state must be discarded). A nil
// fsys uses the real filesystem.
func Open(fsys chaos.FS, path, magic string, maxRecord uint32, apply func(payload []byte) error) (*Log, error) {
	return open(fsys, path, magic, maxRecord, apply, nil)
}

func open(fsys chaos.FS, path, magic string, maxRecord uint32, apply func(payload []byte) error, m *walMetrics) (*Log, error) {
	if len(magic) != 8 {
		return nil, fmt.Errorf("wal: magic %q must be exactly 8 bytes", magic)
	}
	if fsys == nil {
		fsys = chaos.OS()
	}
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if errors.Is(err, os.ErrNotExist) {
		// Create atomically: a crash between "file exists" and "header
		// written" must not leave a log that later refuses to open.
		if cerr := chaos.WriteFileAtomic(fsys, path, []byte(magic), 0o644); cerr != nil {
			return nil, fmt.Errorf("wal: creating %s: %w", path, cerr)
		}
		f, err = fsys.OpenFile(path, os.O_RDWR, 0o644)
	}
	if err != nil {
		return nil, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	l := &Log{fsys: fsys, f: f, path: path, magic: magic, maxRecord: maxRecord, m: m}
	if err := l.replay(apply); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// ApplyError reports a physically intact record (framed, length-sane,
// CRC-verified) that the owner's apply function rejected during replay.
// It is not corruption: the bytes are exactly what an earlier
// incarnation wrote, so the mismatch is version or logic skew, and the
// file is left untouched rather than truncated.
type ApplyError struct {
	Path   string
	Offset int64
	Err    error
}

// Error implements error.
func (e *ApplyError) Error() string {
	return fmt.Sprintf("wal: %s: record at offset %d rejected by apply: %v", e.Path, e.Offset, e.Err)
}

// Unwrap exposes the apply function's error to errors.Is / errors.As.
func (e *ApplyError) Unwrap() error { return e.Err }

// replay loads every intact record, applies it, and truncates a torn or
// corrupt tail so the log is appendable right at the cut.
func (l *Log) replay(apply func(payload []byte) error) error {
	data, err := io.ReadAll(l.f)
	if err != nil {
		return fmt.Errorf("wal: reading %s: %w", l.path, err)
	}
	if len(data) < len(l.magic) || string(data[:len(l.magic)]) != l.magic {
		return fmt.Errorf("wal: %s is not a %s log (bad magic)", l.path, l.magic)
	}
	off := len(l.magic)
	end := len(data)
	truncateAt := -1
	var reason string
	for off < end {
		if off+8 > end {
			truncateAt, reason = off, "short frame header"
			break
		}
		n := binary.LittleEndian.Uint32(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n > l.maxRecord {
			truncateAt, reason = off, fmt.Sprintf("implausible record length %d", n)
			break
		}
		if off+8+int(n) > end {
			truncateAt, reason = off, "torn record body"
			break
		}
		payload := data[off+8 : off+8+int(n)]
		if crc32.ChecksumIEEE(payload) != crc {
			truncateAt, reason = off, "CRC mismatch"
			break
		}
		if err := apply(payload); err != nil {
			// The frame is physically intact — length sane, CRC verified —
			// so this is semantic rejection (version/logic skew), not
			// corruption. Truncating here would silently discard every
			// later record, including fsynced terminal states; fail open
			// loudly and leave the file for inspection instead.
			return &ApplyError{Path: l.path, Offset: int64(off), Err: err}
		}
		off += 8 + int(n)
	}
	if truncateAt >= 0 {
		// Everything from the first bad frame on is untrusted: a torn tail
		// from a crash mid-append, or corruption. Cut it off and let the
		// owner recompute the affected work — recovery trades a little
		// recomputation for never trusting a damaged record.
		slog.Warn("wal tail unreadable; truncating and resuming from last intact record",
			"path", l.path, "offset", truncateAt, "discarded_bytes", end-truncateAt, "reason", reason)
		if err := l.f.Truncate(int64(truncateAt)); err != nil {
			return fmt.Errorf("wal: truncating damaged tail of %s: %w", l.path, err)
		}
		l.truncated = true
		end = truncateAt
	}
	if _, err := l.f.Seek(int64(end), io.SeekStart); err != nil {
		return fmt.Errorf("wal: seeking end of %s: %w", l.path, err)
	}
	return nil
}

// Append frames payload with length + CRC and writes it, returning the
// number of frame bytes written. sync controls whether the record is
// fsynced before returning: true for records the owner is about to act
// on (completions, terminal states), false for advisory records whose
// loss is always safe to replay around (assignments).
//
// After a failed write or sync the file's state is unknown, so the first
// failure is kept: every later Append and Sync returns it without
// touching the file, and the owner stops. Replay cuts the tail it left at
// the next open, as after kill -9.
func (l *Log) Append(payload []byte, sync bool) (int, error) {
	if l.failed != nil {
		return 0, l.failed
	}
	start := time.Now()
	frame := appendFrame(make([]byte, 0, 8+len(payload)), payload)
	if _, err := l.f.Write(frame); err != nil {
		l.failed = fmt.Errorf("wal: append to %s: %w", l.path, err)
		return 0, l.failed
	}
	var fsync time.Duration
	if sync {
		syncStart := time.Now()
		if err := l.f.Sync(); err != nil {
			l.failed = fmt.Errorf("wal: sync %s: %w", l.path, err)
			return 0, l.failed
		}
		fsync = time.Since(syncStart)
	}
	l.m.observeAppend(len(frame), time.Since(start), fsync, sync)
	return len(frame), nil
}

// appendFrame appends payload's frame (length, CRC, payload) to b.
func appendFrame(b, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// Sync flushes the log's data to stable storage; a failure is kept.
func (l *Log) Sync() error {
	if l.failed != nil {
		return l.failed
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		l.failed = fmt.Errorf("wal: sync %s: %w", l.path, err)
		return l.failed
	}
	l.m.observeSync(time.Since(start))
	return nil
}

// Truncated reports whether opening the log had to discard a torn or
// corrupt tail.
func (l *Log) Truncated() bool { return l.truncated }

// Close fsyncs and releases the log file.
func (l *Log) Close() error {
	if err := l.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// Abort releases the log file WITHOUT a final sync — the crash-shaped
// close. Chaos soaks use it so a simulated kill leaves exactly the bytes
// the per-record sync policy already made durable, nothing more.
func (l *Log) Abort() {
	_ = l.f.Close()
}

// Rewrite replaces the closed log's file by a log of the one record
// payload, through chaos.WriteFileAtomic: a crash leaves the old log or
// the new one, never neither.
func (l *Log) Rewrite(payload []byte) error {
	return chaos.WriteFileAtomic(l.fsys, l.path, appendFrame([]byte(l.magic), payload), 0o644)
}

// Remove deletes the log file; call it after the owner's run completes so
// a later run does not resume from finished state.
func (l *Log) Remove() error {
	return l.fsys.Remove(l.path)
}
