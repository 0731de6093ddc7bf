// Package chaos is the repo's filesystem fault-injection layer, the disk's
// counterpart of mpi.ChaosTransport on the wire: a seeded, deterministic
// Plan injects filesystem faults (torn writes, ENOSPC, slow fsync, rename
// failure) into any code that writes through the FS seam. Everything is
// driven by one explicit seed, so a failure found in a soak replays
// exactly. A crash, too, comes through the seams: a test that kills a
// process makes its disk refuse writes or cuts its transport, so the
// program carries no code for being crashed.
//
// The package also owns the durable-write vocabulary the rest of the repo
// uses: the FS/File seam that durable code (the master and service
// journals, the dataset cache) writes through, and WriteFileAtomic, the
// temp+fsync+rename+dir-fsync pattern a crash cannot tear.
package chaos

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// FS is the filesystem seam durable code writes through. Production code
// uses OS(); tests wrap it with Plan.FS to inject faults into exactly the
// operations a real crash or full disk would break.
type FS interface {
	// OpenFile is os.OpenFile behind the seam.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename is os.Rename behind the seam.
	Rename(oldpath, newpath string) error
	// Remove is os.Remove behind the seam.
	Remove(name string) error
	// SyncDir fsyncs the directory itself, making a preceding rename
	// durable (a rename is only on disk once its directory entry is).
	SyncDir(dir string) error
}

// File is the open-file seam: the subset of *os.File durable writers
// need.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	// Sync flushes the file's data to stable storage.
	Sync() error
	// Truncate cuts the file to size (torn-tail recovery).
	Truncate(size int64) error
	// Close releases the file.
	Close() error
	// Name returns the path the file was opened with.
	Name() string
}

// osFS is the real filesystem.
type osFS struct{}

// OS returns the passthrough FS backed by the os package.
func OS() FS { return osFS{} }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// Directory fsync is advisory on some platforms; a sync error on a
	// directory handle still means the rename may not be durable, so it
	// propagates.
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// WriteFileAtomic writes data to path so that a crash at any instant
// leaves either the old content or the new, never a torn mix: the data
// goes to a temp file in the same directory, is fsynced, renamed over
// path, and the directory entry is fsynced. The temp file is removed on
// any failure.
func WriteFileAtomic(fsys FS, path string, data []byte, perm os.FileMode) error {
	if fsys == nil {
		fsys = OS()
	}
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, perm)
	if err != nil {
		return fmt.Errorf("chaos: atomic write %s: %w", path, err)
	}
	cleanup := func(err error) error {
		f.Close()
		_ = fsys.Remove(tmp)
		return fmt.Errorf("chaos: atomic write %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("chaos: atomic write %s: %w", path, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("chaos: atomic write %s: %w", path, err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("chaos: atomic write %s: %w", path, err)
	}
	return nil
}
