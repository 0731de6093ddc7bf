package chaos

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestWriteFileAtomicReplacesContent proves the happy path: the target
// holds exactly the new bytes and no temp file survives.
func TestWriteFileAtomicReplacesContent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(nil, path, []byte("new content"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new content" {
		t.Fatalf("content = %q, want %q", got, "new content")
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file survived the atomic write: %v", err)
	}
}

// TestWriteFileAtomicTornWriteLeavesOldContent is the crash-consistency
// contract: a torn write of the new data must leave the old content
// untouched and clean up the temp file.
func TestWriteFileAtomicTornWriteLeavesOldContent(t *testing.T) {
	plan, err := NewPlan(Config{Seed: 1, FS: FSConfig{TornWrite: 1}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = WriteFileAtomic(plan.FS(OS()), path, []byte("new content that tears"), 0o644)
	if err == nil {
		t.Fatal("torn write reported success")
	}
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("torn write error = %v, want EIO", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "old" {
		t.Fatalf("old content corrupted by failed atomic write: %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file survived the failed write: %v", err)
	}
}

// TestChaosFSInjectsDeterministically proves the same seed replays the
// same fault sequence — the property that makes a soak failure
// reproducible.
func TestChaosFSInjectsDeterministically(t *testing.T) {
	run := func(seed int64) []string {
		plan, err := NewPlan(Config{Seed: seed, FS: FSConfig{TornWrite: 0.3, ENOSPC: 0.3}})
		if err != nil {
			t.Fatal(err)
		}
		fsys := plan.FS(OS())
		dir := t.TempDir()
		var outcomes []string
		for i := 0; i < 32; i++ {
			f, err := fsys.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			_, werr := f.Write([]byte("0123456789"))
			f.Close()
			switch {
			case werr == nil:
				outcomes = append(outcomes, "ok")
			case errors.Is(werr, syscall.ENOSPC):
				outcomes = append(outcomes, "enospc")
			case errors.Is(werr, syscall.EIO):
				outcomes = append(outcomes, "torn")
			default:
				t.Fatalf("unexpected fault class: %v", werr)
			}
		}
		return outcomes
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: seed 42 gave %q then %q; fault plans must replay", i, a[i], b[i])
		}
	}
	joined := strings.Join(a, ",")
	if !strings.Contains(joined, "torn") || !strings.Contains(joined, "enospc") || !strings.Contains(joined, "ok") {
		t.Fatalf("expected a mix of outcomes at 30%%/30%% rates, got %s", joined)
	}
}

// TestRenameFault proves rename failures are injected and surfaced.
func TestRenameFault(t *testing.T) {
	plan, err := NewPlan(Config{Seed: 3, FS: FSConfig{RenameFail: 1}})
	if err != nil {
		t.Fatal(err)
	}
	fsys := plan.FS(OS())
	dir := t.TempDir()
	src := filepath.Join(dir, "src")
	if err := os.WriteFile(src, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Rename(src, filepath.Join(dir, "dst")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("rename fault = %v, want EIO", err)
	}
	if _, err := os.Stat(src); err != nil {
		t.Fatalf("failed rename must leave the source in place: %v", err)
	}
}

// TestNilPlanIsInert proves a caller can wrap unconditionally: a nil plan
// returns the filesystem it was given.
func TestNilPlanIsInert(t *testing.T) {
	var p *Plan
	inner := OS()
	if got := p.FS(inner); got != inner {
		t.Fatal("nil plan wrapped the filesystem")
	}
}

// TestConfigValidation rejects out-of-range rates.
func TestConfigValidation(t *testing.T) {
	if _, err := NewPlan(Config{FS: FSConfig{TornWrite: 1.5}}); err == nil {
		t.Fatal("rate > 1 accepted")
	}
	if _, err := NewPlan(Config{FS: FSConfig{TornWrite: 0.7, ENOSPC: 0.7}}); err == nil {
		t.Fatal("write rates summing past 1 accepted")
	}
}
