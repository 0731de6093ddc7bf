package chaos

import (
	"fmt"
	"os"
	"syscall"
	"time"
)

// FS wraps inner with the plan's filesystem fault injection. A nil plan
// (or a plan with no FS fault rates) returns inner unchanged, so callers
// can wrap unconditionally.
func (p *Plan) FS(inner FS) FS {
	if inner == nil {
		inner = OS()
	}
	if p == nil {
		return inner
	}
	c := p.cfg.FS
	if c.TornWrite == 0 && c.ENOSPC == 0 && c.SlowSync == 0 && c.RenameFail == 0 {
		return inner
	}
	return &chaosFS{inner: inner, plan: p}
}

// chaosFS injects write/sync/rename faults per its plan. Opens and reads
// stay clean: the faults model the ways durable *writes* break (power
// loss mid-write, full disk, slow storage, failed rename), which is what
// the journals' recovery paths must survive.
type chaosFS struct {
	inner FS
	plan  *Plan
}

func (c *chaosFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := c.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &chaosFile{inner: f, plan: c.plan}, nil
}

func (c *chaosFS) Rename(oldpath, newpath string) error {
	if r, _ := c.plan.roll(); r < c.plan.cfg.FS.RenameFail {
		return fmt.Errorf("chaos: injected rename failure %s -> %s: %w", oldpath, newpath, syscall.EIO)
	}
	return c.inner.Rename(oldpath, newpath)
}

func (c *chaosFS) Remove(name string) error { return c.inner.Remove(name) }

func (c *chaosFS) SyncDir(dir string) error {
	c.plan.maybeSlowSync()
	return c.inner.SyncDir(dir)
}

// maybeSlowSync injects the plan's slow-fsync fault.
func (p *Plan) maybeSlowSync() {
	if r, d := p.roll(); r < p.cfg.FS.SlowSync {
		time.Sleep(d)
	}
}

// chaosFile injects faults into writes and syncs of one open file.
type chaosFile struct {
	inner File
	plan  *Plan
}

func (f *chaosFile) Read(p []byte) (int, error)                { return f.inner.Read(p) }
func (f *chaosFile) Seek(off int64, whence int) (int64, error) { return f.inner.Seek(off, whence) }
func (f *chaosFile) Truncate(size int64) error                 { return f.inner.Truncate(size) }
func (f *chaosFile) Close() error                              { return f.inner.Close() }
func (f *chaosFile) Name() string                              { return f.inner.Name() }

// Write rolls for a torn write (a strict prefix lands on disk, then the
// write fails) or ENOSPC (nothing lands) before passing through.
func (f *chaosFile) Write(p []byte) (int, error) {
	r, _ := f.plan.roll()
	cfg := f.plan.cfg.FS
	switch {
	case r < cfg.TornWrite:
		n := 0
		if len(p) > 1 {
			f.plan.mu.Lock()
			n = f.plan.rng.Intn(len(p))
			f.plan.mu.Unlock()
		}
		if n > 0 {
			if wn, err := f.inner.Write(p[:n]); err != nil {
				return wn, err
			}
		}
		return n, fmt.Errorf("chaos: injected torn write (%d of %d bytes) to %s: %w",
			n, len(p), f.inner.Name(), syscall.EIO)
	case r < cfg.TornWrite+cfg.ENOSPC:
		return 0, fmt.Errorf("chaos: injected write failure to %s: %w", f.inner.Name(), syscall.ENOSPC)
	}
	return f.inner.Write(p)
}

func (f *chaosFile) Sync() error {
	f.plan.maybeSlowSync()
	return f.inner.Sync()
}

var (
	_ FS   = (*chaosFS)(nil)
	_ File = (*chaosFile)(nil)
)
