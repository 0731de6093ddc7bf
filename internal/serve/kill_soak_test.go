//go:build chaossoak

package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fcma/internal/chaos"
	"fcma/internal/core"
)

// soakSpecs is the job mix for the kill soak: both synthetic shapes, with
// and without TopK — 34 voxel chunks in total at
// ChunkVoxels 8, so the kill schedule below fires across the whole run.
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
		ChunkVoxels: 8, Executors: 1, RetrySeed: 1,
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
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, id := range ids {
		job := s.jobs[id]
		if job.State != stateDone {
			t.Fatalf("reference job %s ended %s (%s)", id, job.State, job.Err)
		}
		out[i] = append([]core.VoxelScore(nil), job.result...)
	}
	return out
}

// waitSettled waits until every job is terminal or the service is killed,
// checking again after each write, sync or close of its watched files.
func waitSettled(t *testing.T, s *Service, timeout time.Duration) {
	t.Helper()
	deadline := time.After(timeout)
	for {
		if s.Killed() {
			return
		}
		s.mu.Lock()
		settled := true
		for _, job := range s.jobs {
			if !job.State.Terminal() {
				settled = false
				break
			}
		}
		n := len(s.jobs)
		s.mu.Unlock()
		if settled && n > 0 {
			return
		}
		select {
		case <-s.opts.FS.(eventFS).events:
		case <-deadline:
			t.Fatal("service never settled")
		}
	}
}

// TestChaosSoakServerKills is the service's crash-recovery soak: one
// chaos plan kills the server repeatedly at chunk boundaries while the
// filesystem tears writes, fails renames, and stalls syncs. Each kill
// abandons the journal mid-write; the next incarnation replays it and
// resumes. The soak proves every accepted job completes EXACTLY once
// (one terminal record in the journal, ever) with results bit-identical
// to an uninterrupted run.
func TestChaosSoakServerKills(t *testing.T) {
	reference := runReference(t)

	plan, err := chaos.NewPlan(chaos.Config{
		Seed:      83,
		KillTasks: []int{2, 5, 9, 13, 18, 23, 28},
		FS: chaos.FSConfig{
			TornWrite: 0.04, ENOSPC: 0.02, SlowSync: 0.25, RenameFail: 0.05,
			MaxDelay: time.Millisecond,
		},
		Sched: chaos.SchedConfig{Delay: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	opts := Options{
		Dir: dir, QueueCap: 32, TenantCap: 32,
		ChunkVoxels: 8, Executors: 1, RetrySeed: 7,
		JobRetries: 8,
		Chaos:      plan, FS: watchFS(plan.FS(chaos.OS())),
	}

	ids := make([]string, len(soakSpecs))
	var last *Service
	submitted := false
	for incarnation := 0; incarnation < 60; incarnation++ {
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
		if !submitted {
			for i, spec := range soakSpecs {
				for tries := 0; ; tries++ {
					ids[i], err = s.Submit(context.Background(), spec)
					if err == nil {
						break
					}
					var aerr *admitError
					if !errors.As(err, &aerr) || tries > 100 {
						t.Fatalf("soak submit %d: %v", i, err)
					}
					// 503 from an injected journal fault, drawn per
					// operation: the client retries at once.
				}
			}
			submitted = true
		}
		waitSettled(t, s, 2*time.Minute)
		if !s.Killed() {
			last = s
			break
		}
		_ = s.Close() // kill path: journal already abandoned
	}
	if last == nil {
		t.Fatalf("soak never settled within the incarnation budget (%d kills fired)", plan.Kills())
	}
	if plan.Kills() < 3 {
		t.Fatalf("soak fired only %d kills; the schedule should hit at least 3", plan.Kills())
	}
	t.Logf("soak settled after %d kills", plan.Kills())

	// Every job done, bit-identical to the uninterrupted reference.
	last.mu.Lock()
	for i, id := range ids {
		job := last.jobs[id]
		if job == nil || job.State != stateDone {
			last.mu.Unlock()
			t.Fatalf("soak job %s (%s) not done: %+v", id, soakSpecs[i].Name, job)
		}
		want := reference[i]
		if len(job.result) != len(want) {
			last.mu.Unlock()
			t.Fatalf("job %s: %d scores, reference has %d", id, len(job.result), len(want))
		}
		for k := range want {
			if job.result[k].Voxel != want[k].Voxel ||
				math.Float64bits(job.result[k].Accuracy) != math.Float64bits(want[k].Accuracy) {
				last.mu.Unlock()
				t.Fatalf("job %s score %d = %+v, reference %+v (not bit-identical)",
					id, k, job.result[k], want[k])
			}
		}
	}
	last.mu.Unlock()
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
	// drains clean: all jobs terminal, so the journal is removed.
	replayed, err := New(Options{Dir: dir, Executors: -1})
	if err != nil {
		t.Fatal(err)
	}
	replayed.mu.Lock()
	for i, id := range ids {
		job := replayed.jobs[id]
		if job == nil || job.State != stateDone {
			replayed.mu.Unlock()
			t.Fatalf("replayed job %s not done", id)
		}
		want := reference[i]
		for k := range want {
			if math.Float64bits(job.result[k].Accuracy) != math.Float64bits(want[k].Accuracy) {
				replayed.mu.Unlock()
				t.Fatalf("replayed job %s drifted from reference at score %d", id, k)
			}
		}
	}
	replayed.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := replayed.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs.jnl")); !os.IsNotExist(err) {
		t.Fatalf("settled journal survived the final drain (stat err %v)", err)
	}
}

// countTerminalRecords walks the raw journal frames and counts terminal
// srState records per job — independently of the journal code under test.
func countTerminalRecords(t *testing.T, path string) map[string]int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 8 || string(data[:8]) != serveMagic {
		t.Fatalf("journal %s has bad magic", path)
	}
	counts := make(map[string]int)
	off := 8
	for off < len(data) {
		if off+8 > len(data) {
			t.Fatalf("journal %s: torn frame header at %d after clean close", path, off)
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if off+8+n > len(data) {
			t.Fatalf("journal %s: torn frame body at %d after clean close", path, off)
		}
		payload := data[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != crc {
			t.Fatalf("journal %s: CRC mismatch at %d after clean close", path, off)
		}
		if len(payload) > 0 && payload[0] == srState {
			var rec stateRecord
			if err := json.Unmarshal(payload[1:], &rec); err != nil {
				t.Fatalf("journal %s: bad state record at %d: %v", path, off, err)
			}
			if rec.State.Terminal() {
				if rec.State != stateDone {
					t.Fatalf("job %s journaled terminal state %s, want done", rec.ID, rec.State)
				}
				counts[rec.ID]++
			}
		}
		off += 8 + n
	}
	return counts
}
