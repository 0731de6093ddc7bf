//go:build chaossoak

package serve

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"fcma/internal/chaos"
	"fcma/internal/core"
)

// soakSpecs is the job mix for the kill soak: both synthetic shapes, with
// and without TopK — 34 voxel chunks in total at
// ChunkVoxels 8, so the cut schedule below fires across the whole run.
var soakSpecs = []JobSpec{
	{Synthetic: "face-scene", Scale: 0.001, Name: "fs-a"},
	{Synthetic: "attention", Scale: 0.001, Name: "at-a"},
	{Synthetic: "face-scene", Scale: 0.001, Name: "fs-top", TopK: 5},
	{Synthetic: "attention", Scale: 0.001, Name: "at-base", TopK: 3},
	{Synthetic: "face-scene", Scale: 0.002, Name: "fs-b"},
	{Synthetic: "attention", Scale: 0.002, Name: "at-b"},
}

// runReference completes every soak job on a clean (chaos-free) service
// and returns each job's final scores keyed by submission index.
func runReference(t *testing.T) map[int][]core.VoxelScore {
	t.Helper()
	s, err := New(Options{
		Dir: t.TempDir(), QueueCap: 32, TenantCap: 32,
		ChunkVoxels: 8, Executors: 1,
		FS: watchFS(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ids := make([]string, len(soakSpecs))
	for i, spec := range soakSpecs {
		if ids[i], err = s.Submit(context.Background(), spec); err != nil {
			t.Fatalf("reference submit %d: %v", i, err)
		}
	}
	waitSettled(t, s, 2*time.Minute)
	out := make(map[int][]core.VoxelScore)
	for i, id := range ids {
		out[i] = jobResult(t, s, id)
	}
	return out
}

// TestChaosSoakServerKills is the service's crash-recovery soak: its disk
// is cut repeatedly, each time at a chosen cumulative count of journal
// fsyncs (the failed fsync's bytes kept), while the filesystem also tears
// writes, fails writes with ENOSPC, fails renames and stalls syncs. Every
// journal failure, a cut or an injected fault, stops the service; the
// test closes the stopped service, and the next incarnation replays the
// journal and resumes. The soak proves every submission makes one job,
// which completes EXACTLY once (one terminal record in the journal, ever)
// with results bit-identical to an uninterrupted run, across several jobs
// sharing one journal.
func TestChaosSoakServerKills(t *testing.T) {
	reference := runReference(t)

	plan, err := chaos.NewPlan(chaos.Config{
		Seed: 83,
		FS: chaos.FSConfig{
			TornWrite: 0.04, ENOSPC: 0.02, SlowSync: 0.4, RenameFail: 0.05,
			MaxDelay: time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	disk := cutDisk(plan.FS(chaos.OS()), fsyncKept, 3, 8, 14, 20, 27, 35, 44)

	dir := t.TempDir()
	opts := Options{
		Dir: dir, QueueCap: 32, TenantCap: 32,
		ChunkVoxels: 8, Executors: 1,
		JobRetries: 8,
		FS:         watchFS(disk),
	}

	ids := make([]string, len(soakSpecs))
	var last *Service
	next := 0        // the first spec not yet accepted
	inDoubt := false // whether the stop left spec next's acceptance unknown
	stops := 0       // incarnations stopped by a journal failure
	for incarnation := 0; incarnation < 60; incarnation++ {
		disk.revive()
		var s *Service
		var err error
		for tries := 0; tries < 50; tries++ {
			// Startup itself runs through the faulty filesystem (the journal
			// create path can lose its rename); a real operator would be
			// restarted by the supervisor, so the soak just tries again.
			if s, err = New(opts); err == nil {
				break
			}
		}
		if err != nil {
			t.Fatalf("incarnation %d never started: %v", incarnation, err)
		}
		// The executor runs while the client submits, so a journal
		// failure can land between two submissions; a submit it refuses
		// with 503 goes, with the rest, to the next incarnation, which is
		// first asked for it by name when the 503 left its acceptance
		// unknown.
		if inDoubt {
			if id := jobNamed(s, soakSpecs[next].Name); id != "" {
				ids[next] = id
				next++
			}
			inDoubt = false
		}
		for next < len(soakSpecs) {
			id, err := s.Submit(context.Background(), soakSpecs[next])
			if err != nil {
				var aerr *admitError
				if !unavailable(err) {
					t.Fatalf("soak submit %d: %v", next, err)
				}
				inDoubt = errors.As(err, &aerr) && aerr.Reason == reasonAcceptUnknown
				break
			}
			ids[next] = id
			next++
		}
		waitSettled(t, s, 2*time.Minute)
		if s.execCtx.Err() == nil && next == len(soakSpecs) {
			last = s
			break
		}
		if ok, why := s.Readiness().Ready(); ok || why != "journal" {
			t.Fatalf("incarnation %d ended with readiness (%v, %q), want stopped by its journal", incarnation, ok, why)
		}
		stops++
		_ = s.Close() // the journal's first error again
	}
	if last == nil {
		t.Fatalf("soak never settled within the incarnation budget (%d cuts fired)", disk.cuts())
	}
	if disk.cuts() < 3 {
		t.Fatalf("soak fired only %d cuts; the schedule should hit at least 3", disk.cuts())
	}
	t.Logf("soak settled after %d journal stops, %d of them disk cuts", stops, disk.cuts())

	// One job per submission, each done, bit-identical to the
	// uninterrupted reference.
	if n := len(last.jobs); n != len(soakSpecs) {
		t.Fatalf("the service holds %d jobs for %d submissions", n, len(soakSpecs))
	}
	for i, id := range ids {
		sameScores(t, fmt.Sprintf("job %s (%s)", id, soakSpecs[i].Name), jobResult(t, last, id), reference[i])
	}
	if err := last.Close(); err != nil {
		t.Fatal(err)
	}

	// Exactly once: the journal — the durable record of everything every
	// incarnation acknowledged — holds exactly one terminal record per job,
	// and it says done.
	terminal := countTerminalRecords(t, filepath.Join(dir, "jobs.jnl"))
	for i, id := range ids {
		if got := terminal[id]; got != 1 {
			t.Fatalf("job %s (%s) has %d terminal records, want exactly 1", id, soakSpecs[i].Name, got)
		}
	}
	if len(terminal) != len(ids) {
		t.Fatalf("journal holds terminal records for %d jobs, want %d", len(terminal), len(ids))
	}

	// A fresh replay of the settled journal serves the same results, then
	// drains clean: all jobs terminal, so the journal keeps only its id
	// floor and the next service lists no job.
	replayed, err := New(Options{Dir: dir, Executors: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		sameScores(t, fmt.Sprintf("replayed job %s", id), jobResult(t, replayed, id), reference[i])
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := replayed.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	after, err := New(Options{Dir: dir, Executors: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()
	if n := len(after.jobs); n != 0 {
		t.Fatalf("settled jobs survived the final drain: the next service lists %d", n)
	}
}
