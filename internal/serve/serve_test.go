package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"fcma/internal/chaos"
	"fcma/internal/core"
	"fcma/internal/fmri"
	"fcma/internal/obs"
	"fcma/internal/wal"
)

// tinyBlob builds a small uploadable dataset (WriteData binary followed
// by WriteEpochs text) with a fixed seed.
func tinyBlob(t *testing.T) []byte {
	t.Helper()
	ds, err := fmri.Generate(fmri.Spec{
		Name: "tiny", Voxels: 24, Subjects: 3, EpochsPerSubject: 6,
		EpochLen: 12, RestLen: 2, SignalVoxels: 6, Coupling: 0.8, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := encodeDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// newTestService builds a Service on a temp dir, its files watched
// (watchFS).
func newTestService(t *testing.T, opts Options) *Service {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	opts.FS = watchFS(opts.FS)
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// doJSON sends a request and decodes the JSON response.
func doJSON(t *testing.T, method, url string, body []byte) (int, http.Header, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("%s %s: decoding response: %v", method, url, err)
	}
	return resp.StatusCode, resp.Header, doc
}

// TestSubmitRunFetchHTTP walks the whole happy path over HTTP: upload a
// dataset, submit a job on it, poll to completion, fetch the result.
func TestSubmitRunFetchHTTP(t *testing.T) {
	s := newTestService(t, Options{ChunkVoxels: 8, Executors: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, _, doc := doJSON(t, "POST", ts.URL+"/api/v1/datasets", tinyBlob(t))
	if code != http.StatusCreated {
		t.Fatalf("upload = %d %v", code, doc)
	}
	hash := doc["hash"].(string)

	spec, _ := json.Marshal(JobSpec{Dataset: hash, Name: "smoke"})
	code, _, doc = doJSON(t, "POST", ts.URL+"/api/v1/jobs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d %v", code, doc)
	}
	id := doc["id"].(string)
	if !strings.HasPrefix(id, "job-") {
		t.Fatalf("job id %q", id)
	}

	waitState(t, s, ts.URL, id, stateDone, 30*time.Second)

	code, _, doc = doJSON(t, "GET", ts.URL+"/api/v1/jobs/"+id+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("result = %d %v", code, doc)
	}
	scores := doc["scores"].([]any)
	if len(scores) != 24 {
		t.Fatalf("result has %d scores, want 24 (all voxels)", len(scores))
	}

	// The status document reports full progress.
	code, _, doc = doJSON(t, "GET", ts.URL+"/api/v1/jobs/"+id, nil)
	if code != http.StatusOK || doc["done_voxels"].(float64) != 24 {
		t.Fatalf("status = %d %v", code, doc)
	}
}

// waitState polls a job until it reaches the wanted state or the deadline
// passes (failing with the last status document). It polls again after
// each write, sync or close of the service's watched files: a job reaches
// a terminal state only by a journal record.
func waitState(t *testing.T, s *Service, base, id string, want jobState, timeout time.Duration) {
	t.Helper()
	deadline := time.After(timeout)
	for {
		code, _, doc := doJSON(t, "GET", base+"/api/v1/jobs/"+id, nil)
		if code == http.StatusOK && jobState(doc["state"].(string)) == want {
			return
		}
		if code == http.StatusOK && jobState(doc["state"].(string)).Terminal() {
			t.Fatalf("job %s reached %v, want %v (err: %v)", id, doc["state"], want, doc["error"])
		}
		select {
		case <-s.opts.FS.(eventFS).events:
		case <-deadline:
			t.Fatalf("job %s never reached %v; last status %v", id, want, doc)
		}
	}
}

// eventFS is a filesystem whose files send on events, without blocking,
// after every write, sync and close. Each journal record a state
// transition makes is one, and so is the sync that cuts a diskCuts, so a
// test re-checks the service's state after each instead of sleeping
// between polls.
type eventFS struct {
	chaos.FS
	events chan struct{}
}

// watchFS wraps fsys (the real filesystem when nil) in an eventFS.
func watchFS(fsys chaos.FS) eventFS {
	if fsys == nil {
		fsys = chaos.OS()
	}
	return eventFS{fsys, make(chan struct{}, 1)}
}

func (f eventFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return eventFile{file, f.events}, nil
}

type eventFile struct {
	chaos.File
	events chan struct{}
}

func (f eventFile) Write(p []byte) (int, error) { defer f.note(); return f.File.Write(p) }
func (f eventFile) Sync() error                 { defer f.note(); return f.File.Sync() }
func (f eventFile) Close() error                { defer f.note(); return f.File.Close() }

func (f eventFile) note() {
	select {
	case f.events <- struct{}{}:
	default:
	}
}

// diskCuts crashes a service from outside. It counts the journal's
// writes and fsyncs across the incarnations that share it, and the call
// that reaches each chosen cumulative count fails and cuts the disk: a
// cut disk fails every Write, Sync, Truncate, Rename, Remove and OpenFile
// for writing, as a machine that lost its power writes nothing more,
// until revive readies it for the next incarnation. What the failed call
// leaves in the journal is its cutMode's.
type diskCuts struct {
	chaos.FS
	at   []int // cumulative journal fsyncs, or writes when tearing; strictly increasing
	mode cutMode

	mu          sync.Mutex
	syncs       int  // journal fsyncs so far, a failed one included
	writes      int  // journal writes so far, a torn one included
	pending     int  // progress records written since the journal's last fsync
	pendingDone bool // a terminal record written since the journal's last fsync
	durable     int  // progress records the journal keeps
	done        bool // the journal keeps a terminal record
	fired       int
	dead        bool
	late        int // mutating calls made on the cut disk
}

// cutMode is the call a diskCuts cuts at and what the cut leaves.
type cutMode int

const (
	// fsyncLost fails an fsync and loses what it was to make durable: the
	// journal goes back to its size at its last fsync that succeeded, as
	// when the machine loses its power with the failed writeback's pages.
	fsyncLost cutMode = iota
	// fsyncKept fails an fsync and keeps its bytes, as a kernel that keeps
	// a failed writeback's pages cached shows them to a process restarted
	// on the same machine.
	fsyncKept
	// tear fails a write after half its frame has landed.
	tear
)

// errDiskCut is what every mutating call on a cut disk reports.
var errDiskCut = fmt.Errorf("disk cut: %w", syscall.EIO)

// cutDisk wraps fsys under the schedule: fsync counts, or write counts
// when mode is tear.
func cutDisk(fsys chaos.FS, mode cutMode, at ...int) *diskCuts {
	return &diskCuts{FS: fsys, at: at, mode: mode}
}

// cuts reports how many cuts have fired.
func (d *diskCuts) cuts() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fired
}

// cutCounts is what a diskCuts has seen.
type cutCounts struct {
	syncs, writes int  // journal fsyncs and writes
	durable       int  // progress records the journal keeps
	done          bool // the journal keeps a terminal record
	late          int  // mutating calls made on a cut disk
}

func (d *diskCuts) counts() cutCounts {
	d.mu.Lock()
	defer d.mu.Unlock()
	return cutCounts{d.syncs, d.writes, d.durable, d.done, d.late}
}

// cutAt schedules one more cut, at cumulative count n.
func (d *diskCuts) cutAt(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.at = append(d.at, n)
}

// revive makes the disk take writes again.
func (d *diskCuts) revive() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dead = false
}

// refuse returns errDiskCut on a cut disk, counting the call.
func (d *diskCuts) refuse() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead {
		d.late++
		return errDiskCut
	}
	return nil
}

// count books one journal fsync (or write) and reports whether the
// schedule cuts the disk on it. A kept fsync's records stay in the
// journal as if it had succeeded.
func (d *diskCuts) count(sync bool) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := &d.writes
	if sync {
		n = &d.syncs
	}
	*n++
	if sync != (d.mode == tear) && d.fired < len(d.at) && *n >= d.at[d.fired] {
		d.fired++
		d.dead = true
		if d.mode == fsyncKept {
			d.keepLocked()
		}
		d.pending, d.pendingDone = 0, false
		return true
	}
	return false
}

// wrote books one whole journal write; synced books a journal fsync that
// succeeded, which keeps every record written before it.
func (d *diskCuts) wrote(progress, terminal bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if progress {
		d.pending++
	}
	d.pendingDone = d.pendingDone || terminal
}

func (d *diskCuts) synced() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.keepLocked()
}

func (d *diskCuts) keepLocked() {
	d.durable += d.pending
	d.done = d.done || d.pendingDone
	d.pending, d.pendingDone = 0, false
}

func (d *diskCuts) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	if flag&(os.O_WRONLY|os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND) != 0 {
		if err := d.refuse(); err != nil {
			return nil, err
		}
	}
	f, err := d.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	cf := &cutFile{File: f, disk: d, journal: filepath.Base(name) == "jobs.jnl"}
	if cf.journal {
		if cf.synced, err = f.Seek(0, io.SeekEnd); err == nil {
			_, err = f.Seek(0, io.SeekStart)
		}
		if err != nil {
			f.Close()
			return nil, err
		}
	}
	return cf, nil
}

func (d *diskCuts) Rename(oldpath, newpath string) error {
	if err := d.refuse(); err != nil {
		return err
	}
	return d.FS.Rename(oldpath, newpath)
}

func (d *diskCuts) Remove(name string) error {
	if err := d.refuse(); err != nil {
		return err
	}
	return d.FS.Remove(name)
}

// cutFile is one open file of a diskCuts. On the journal it tells
// progress and terminal records apart by the payload behind the wal frame
// header (the journal hands each frame to one Write), and keeps the size
// its last fsync made durable.
type cutFile struct {
	chaos.File
	disk    *diskCuts
	journal bool
	synced  int64
}

func (f *cutFile) Write(p []byte) (int, error) {
	if err := f.disk.refuse(); err != nil {
		return 0, err
	}
	if !f.journal {
		return f.File.Write(p)
	}
	if f.disk.count(false) {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errDiskCut
	}
	n, err := f.File.Write(p)
	if err == nil {
		f.disk.wrote(isRecord(p, srProgress), isRecord(p, srState) && terminalRecord(p[9:]))
	}
	return n, err
}

// isRecord reports whether the wal frame p holds a record of kind.
func isRecord(p []byte, kind byte) bool { return len(p) > 8 && p[8] == kind }

// terminalRecord reports whether a state record's body is a terminal one.
func terminalRecord(body []byte) bool {
	var rec stateRecord
	return json.Unmarshal(body, &rec) == nil && rec.State.Terminal()
}

func (f *cutFile) Sync() error {
	if err := f.disk.refuse(); err != nil {
		return err
	}
	if !f.journal {
		return f.File.Sync()
	}
	if f.disk.count(true) {
		if f.disk.mode == fsyncLost {
			_ = f.File.Truncate(f.synced)
		}
		return errDiskCut
	}
	if err := f.File.Sync(); err != nil {
		return err
	}
	end, err := f.File.Seek(0, io.SeekCurrent)
	if err != nil {
		return err
	}
	f.synced = end
	f.disk.synced()
	return nil
}

func (f *cutFile) Truncate(size int64) error {
	if err := f.disk.refuse(); err != nil {
		return err
	}
	f.synced = min(f.synced, size)
	return f.File.Truncate(size)
}

// waitSettled waits until every job of s is terminal or s has stopped
// (a journal failure, Close or Drain), checking again after each write,
// sync or close of its watched files.
func waitSettled(t *testing.T, s *Service, timeout time.Duration) {
	t.Helper()
	deadline := time.After(timeout)
	for {
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
		case <-s.execCtx.Done():
			return
		case <-deadline:
			t.Fatal("service never settled")
		}
	}
}

// jobResult returns a copy of a settled job's scores, failing the test
// unless the job is done.
func jobResult(t *testing.T, s *Service, id string) []core.VoxelScore {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	job := s.jobs[id]
	if job == nil || job.State != stateDone {
		t.Fatalf("job %s not done: %+v", id, job)
	}
	return append([]core.VoxelScore(nil), job.result...)
}

// sameScores fails the test unless got equals want voxel for voxel and
// bit for bit.
func sameScores(t *testing.T, what string, got, want []core.VoxelScore) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, reference has %d", what, len(got), len(want))
	}
	for k := range want {
		if got[k].Voxel != want[k].Voxel ||
			math.Float64bits(got[k].Accuracy) != math.Float64bits(want[k].Accuracy) {
			t.Fatalf("%s: score %d = %+v, reference %+v (not bit-identical)", what, k, got[k], want[k])
		}
	}
}

// journalStates walks the raw journal frames and returns its srState
// records in order — independently of the journal code under test.
func journalStates(t *testing.T, path string) []stateRecord {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 8 || string(data[:8]) != serveMagic {
		t.Fatalf("journal %s has bad magic", path)
	}
	var recs []stateRecord
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
			recs = append(recs, rec)
		}
		off += 8 + n
	}
	return recs
}

// countTerminalRecords counts the journal's terminal srState records per
// job, failing the test on any terminal state but done.
func countTerminalRecords(t *testing.T, path string) map[string]int {
	t.Helper()
	counts := make(map[string]int)
	for _, rec := range journalStates(t, path) {
		if rec.State.Terminal() {
			if rec.State != stateDone {
				t.Fatalf("job %s journaled terminal state %s, want done", rec.ID, rec.State)
			}
			counts[rec.ID]++
		}
	}
	return counts
}

// TestCrashResumesFromJournaledChunks crashes a job's service at every
// point its journal can fail: each journal fsync fails in turn, once
// losing the bytes it was to make durable and once keeping them, and each
// journal write tears in turn. After each cut the service must have
// stopped itself: readiness false with reason "journal", a submit
// answered 503, and no mutating call on the disk after the failed one.
// Reopened on the same directory, it must skip exactly the progress
// records the journal kept, finish with scores bit-identical to an
// uninterrupted run, and hold one job, with exactly one terminal record,
// for the client's one submission: a client whose submit the cut refused
// looks the job up by the id the 503 names when it says the outcome is
// unknown (404 where the accept's bytes were lost, the job where they were
// kept), and submits it again only when it is not there, getting a new id.
func TestCrashResumesFromJournaledChunks(t *testing.T) {
	spec := JobSpec{Synthetic: "face-scene", Scale: 0.001, Name: "crash"}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	prev := slog.Default()
	slog.SetDefault(quiet) // the wal warns once per torn tail it cuts
	t.Cleanup(func() { slog.SetDefault(prev) })

	counted := cutDisk(chaos.OS(), fsyncLost)
	clean := newTestService(t, Options{ChunkVoxels: 4, Executors: 1, FS: counted})
	refID, err := clean.Submit(t.Context(), spec)
	if err != nil {
		t.Fatal(err)
	}
	waitSettled(t, clean, time.Minute)
	want := jobResult(t, clean, refID)
	total := counted.counts()
	t.Logf("%d voxels in %d chunks: K = %d journal fsyncs, %d journal writes", len(want), (len(want)+3)/4, total.syncs, total.writes)

	type crashPoint struct {
		name string
		mode cutMode
		at   int
	}
	var points []crashPoint
	for i := 1; i <= total.syncs; i++ {
		points = append(points,
			crashPoint{fmt.Sprintf("fsync_lost_%d", i), fsyncLost, i},
			crashPoint{fmt.Sprintf("fsync_kept_%d", i), fsyncKept, i})
	}
	for i := 1; i <= total.writes; i++ {
		points = append(points, crashPoint{fmt.Sprintf("tear_%d", i), tear, i})
	}
	for _, p := range points {
		t.Run(p.name, func(t *testing.T) {
			dir := t.TempDir()
			disk := cutDisk(chaos.OS(), p.mode, p.at)
			crashed := newTestService(t, Options{Dir: dir, ChunkVoxels: 4, Executors: 1, FS: disk, Log: quiet})
			code, body := postJob(t, crashed, spec)
			if code != http.StatusAccepted && code != http.StatusServiceUnavailable {
				t.Fatalf("submit on the cut disk answered %d %v, want 202 or 503", code, body)
			}
			var id, doubtID string
			if code == http.StatusAccepted {
				id = body["id"]
			}
			inDoubt := code == http.StatusServiceUnavailable && body["error"] == reasonAcceptUnknown
			if doubtID = body["id"]; inDoubt && doubtID == "" {
				t.Fatal("the 503 of a submit whose accept is in doubt names no job id")
			}
			requireStopped(t, crashed, disk)
			kept := disk.counts()

			reg := obs.NewRegistry()
			resumed := newTestService(t, Options{Dir: dir, ChunkVoxels: 4, Executors: 1, FS: disk, Obs: reg, Log: quiet})
			if inDoubt {
				// The client looks the job up by the id the 503 named: the
				// accept replays only where the failed fsync kept its bytes.
				code := statusCode(resumed, doubtID)
				if accepted := p.mode == fsyncKept; accepted && code != http.StatusOK || !accepted && code != http.StatusNotFound {
					t.Fatalf("GET of the in-doubt job %s after the reopen answers %d", doubtID, code)
				}
				if code == http.StatusOK {
					id = doubtID
				}
			}
			if id == "" {
				var err error
				if id, err = resumed.Submit(t.Context(), spec); err != nil {
					t.Fatal(err)
				}
			}
			if inDoubt && (id != doubtID) == (p.mode == fsyncKept) {
				t.Fatalf("the reopened service runs the job as %s; the in-doubt id was %s", id, doubtID)
			}
			if next := fmt.Sprintf("job-%08d", resumed.seq+1); inDoubt && next == doubtID {
				t.Fatalf("the reopened service's next submit would get the in-doubt id %s", next)
			}
			waitSettled(t, resumed, time.Minute)
			wantSkipped := kept.durable
			if kept.done {
				wantSkipped = 0 // the job replays done and never runs again
			}
			if got := reg.Counter("serve_chunks_skipped_journaled_total").Value(); got != uint64(wantSkipped) {
				t.Fatalf("resumed job skipped %d journaled chunks, want the %d the journal kept", got, wantSkipped)
			}
			sameScores(t, "resumed job", jobResult(t, resumed, id), want)
			if n := len(resumed.jobs); n != 1 {
				t.Fatalf("the reopened service holds %d jobs for the client's one submission", n)
			}
			if err := resumed.Close(); err != nil {
				t.Fatal(err)
			}
			terminal := countTerminalRecords(t, filepath.Join(dir, "jobs.jnl"))
			if terminal[id] != 1 || len(terminal) != 1 {
				t.Fatalf("journal terminal records = %v, want exactly one for %s", terminal, id)
			}
		})
	}

	// Two incarnations in a row lose their accept's fsync. Each 503 names
	// a new id, and the third incarnation gives its submit a third: the
	// id floor the second journaled outlasts it.
	t.Run("fsync_lost_twice", func(t *testing.T) {
		dir := t.TempDir()
		disk := cutDisk(chaos.OS(), fsyncLost)
		var doubt []string
		for range 2 {
			crashed := newTestService(t, Options{Dir: dir, ChunkVoxels: 4, Executors: 1, FS: disk, Log: quiet})
			disk.cutAt(disk.counts().syncs + 1) // the accept's
			code, body := postJob(t, crashed, spec)
			if code != http.StatusServiceUnavailable || body["error"] != reasonAcceptUnknown || body["id"] == "" {
				t.Fatalf("submit on the cut disk answered %d %v, want a 503 naming the in-doubt id", code, body)
			}
			doubt = append(doubt, body["id"])
			requireStopped(t, crashed, disk)
		}
		resumed := newTestService(t, Options{Dir: dir, ChunkVoxels: 4, Executors: 1, FS: disk, Log: quiet})
		for _, id := range doubt {
			if code := statusCode(resumed, id); code != http.StatusNotFound {
				t.Fatalf("GET of the lost job %s answers %d, want 404", id, code)
			}
		}
		id, err := resumed.Submit(t.Context(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if id == doubt[0] || id == doubt[1] || doubt[0] == doubt[1] {
			t.Fatalf("the in-doubt ids %v, then the next submit's %s: an id names two submissions", doubt, id)
		}
		waitSettled(t, resumed, time.Minute)
		sameScores(t, "resubmitted job", jobResult(t, resumed, id), want)
	})

	// The first two writes of a reopened service fail too. The first, the
	// id floor, fails the open, and the next open resumes the job; the
	// second, its resumed job's running record, stops the service, whose
	// readiness must stay stopped, not be set ready by the rest of the
	// start.
	for _, cut := range []int{1, 2} {
		t.Run(fmt.Sprintf("reopen_tear_%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			queued := newTestService(t, Options{Dir: dir, ChunkVoxels: 4, Executors: -1, Log: quiet})
			id, err := queued.Submit(t.Context(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := queued.Close(); err != nil {
				t.Fatal(err)
			}
			disk := cutDisk(chaos.OS(), tear, cut)
			opts := Options{Dir: dir, ChunkVoxels: 4, Executors: 1, FS: disk, Log: quiet}
			if cut == 1 {
				if s, err := New(opts); err == nil || !errors.Is(err, errDiskCut) {
					if s != nil {
						_ = s.Close()
					}
					t.Fatalf("open whose id floor tears = %v, want the cut's error", err)
				}
				disk.revive()
			} else {
				requireStopped(t, newTestService(t, opts), disk)
			}
			resumed := newTestService(t, opts)
			waitSettled(t, resumed, time.Minute)
			sameScores(t, "resumed job", jobResult(t, resumed, id), want)
		})
	}
}

// requireStopped waits until s has stopped on its cut disk and checks the
// stop: readiness false with reason "journal", a submit answered 503, and
// no mutating call on the disk after its failed one, before and after
// Close. It leaves the disk revived for the next incarnation.
func requireStopped(t *testing.T, s *Service, disk *diskCuts) {
	t.Helper()
	select {
	case <-s.Stopped():
	case <-time.After(time.Minute):
		t.Fatal("the service did not stop after its disk was cut")
	}
	if ok, why := s.Readiness().Ready(); ok || why != "journal" {
		t.Fatalf("readiness after the cut = (%v, %q), want (false, journal)", ok, why)
	}
	if _, err := s.Submit(t.Context(), JobSpec{Synthetic: "face-scene", Scale: 0.001}); !unavailable(err) {
		t.Fatalf("submit after the cut = %v, want a 503", err)
	}
	if late := disk.counts().late; late != 0 {
		t.Fatalf("%d mutating calls reached the disk after its first failed one", late)
	}
	_ = s.Close() // the journal's first error again
	if late := disk.counts().late; late != 0 {
		t.Fatalf("%d mutating calls reached the disk after its first failed one", late)
	}
	disk.revive()
}

// postJob submits spec to s over HTTP and returns the status and the
// JSON body.
func postJob(t *testing.T, s *Service, spec JobSpec) (int, map[string]string) {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/jobs", bytes.NewReader(b)))
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("submit answered %d with %q: %v", rec.Code, rec.Body, err)
	}
	return rec.Code, body
}

// statusCode is the HTTP status of a GET of job id's status from s.
func statusCode(s *Service, id string) int {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/jobs/"+id, nil))
	return rec.Code
}

// jobNamed returns the id of s's job named name, or "" when it has none.
func jobNamed(s *Service, name string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, job := range s.jobs {
		if job.Spec.Name == name {
			return id
		}
	}
	return ""
}

// unavailable reports whether err is a submit refused with 503.
func unavailable(err error) bool {
	var aerr *admitError
	return errors.As(err, &aerr) && aerr.Status == http.StatusServiceUnavailable
}

// TestQueueFullBackpressure proves the bounded queue answers 429 with a
// Retry-After header instead of accepting work beyond its cap.
func TestQueueFullBackpressure(t *testing.T) {
	// Executors: -1 runs none, so accepted jobs stay queued forever and
	// admission decisions are deterministic.
	s := newTestService(t, Options{QueueCap: 2, Executors: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec, _ := json.Marshal(JobSpec{Synthetic: "face-scene", Scale: 0.001})
	for i := 0; i < 2; i++ {
		if code, _, doc := doJSON(t, "POST", ts.URL+"/api/v1/jobs", spec); code != http.StatusAccepted {
			t.Fatalf("submit %d = %d %v", i, code, doc)
		}
	}
	code, hdr, doc := doJSON(t, "POST", ts.URL+"/api/v1/jobs", spec)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-cap submit = %d %v, want 429", code, doc)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	if !strings.Contains(doc["error"].(string), "queue full") {
		t.Fatalf("429 reason %q", doc["error"])
	}
}

// TestTenantQuota proves one tenant cannot occupy the whole queue.
func TestTenantQuota(t *testing.T) {
	s := newTestService(t, Options{QueueCap: 10, TenantCap: 1, Executors: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	alice, _ := json.Marshal(JobSpec{Synthetic: "face-scene", Scale: 0.001, Tenant: "alice"})
	if code, _, doc := doJSON(t, "POST", ts.URL+"/api/v1/jobs", alice); code != http.StatusAccepted {
		t.Fatalf("first submit = %d %v", code, doc)
	}
	code, hdr, doc := doJSON(t, "POST", ts.URL+"/api/v1/jobs", alice)
	if code != http.StatusTooManyRequests || !strings.Contains(doc["error"].(string), "tenant") {
		t.Fatalf("quota submit = %d %v, want tenant 429", code, doc)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("quota 429 without Retry-After")
	}
	// A different tenant still gets in.
	bob, _ := json.Marshal(JobSpec{Synthetic: "face-scene", Scale: 0.001, Tenant: "bob"})
	if code, _, doc := doJSON(t, "POST", ts.URL+"/api/v1/jobs", bob); code != http.StatusAccepted {
		t.Fatalf("other-tenant submit = %d %v", code, doc)
	}
}

// TestMemoryBudgetGate proves the admission gate refuses jobs whose
// estimated working set exceeds the budget.
func TestMemoryBudgetGate(t *testing.T) {
	s := newTestService(t, Options{MemBudget: 1 << 20, Executors: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec, _ := json.Marshal(JobSpec{Synthetic: "face-scene", Scale: 0.01})
	code, _, doc := doJSON(t, "POST", ts.URL+"/api/v1/jobs", spec)
	if code != http.StatusTooManyRequests || !strings.Contains(doc["error"].(string), "memory budget") {
		t.Fatalf("submit = %d %v, want memory-budget 429", code, doc)
	}
}

// TestBadSpecRejected proves validation failures come back 400 without
// touching the journal.
func TestBadSpecRejected(t *testing.T) {
	s := newTestService(t, Options{Executors: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{}`, // neither synthetic nor dataset
		`{"synthetic":"face-scene","dataset":"abc"}`, // both
		`{"synthetic":"nope"}`,
		`not json`,
	} {
		code, _, doc := doJSON(t, "POST", ts.URL+"/api/v1/jobs", []byte(body))
		if code != http.StatusBadRequest {
			t.Fatalf("submit %q = %d %v, want 400", body, code, doc)
		}
	}
	// JSON cannot carry a NaN scale, but a Go caller can: validation must
	// refuse it, not let the journal's encoder fail it as a 503.
	_, err := s.Submit(t.Context(), JobSpec{Synthetic: "face-scene", Scale: math.NaN()})
	var aerr *admitError
	if err == nil || errors.As(err, &aerr) {
		t.Fatalf("submit with NaN scale = %v, want a validation error", err)
	}
	if got := s.Metrics().Counter("serve_jobs_accepted_total").Value(); got != 0 {
		t.Fatalf("bad specs accepted %d jobs", got)
	}
}

// TestUnknownSpecFieldRejected proves a spec cannot be half-understood: a
// field the server does not know — the retired "engine" switch, or a
// misspelling of "top_k" that would otherwise silently return every voxel
// — is a 400 that names the field, and nothing is journaled.
func TestUnknownSpecFieldRejected(t *testing.T) {
	s := newTestService(t, Options{Executors: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for field, body := range map[string]string{
		"engine": `{"synthetic":"face-scene","engine":"baseline"}`,
		"topk":   `{"synthetic":"face-scene","scale":0.001,"topk":3}`,
	} {
		code, _, doc := doJSON(t, "POST", ts.URL+"/api/v1/jobs", []byte(body))
		msg, _ := doc["error"].(string)
		if code != http.StatusBadRequest || !strings.Contains(msg, `"`+field+`"`) {
			t.Fatalf("submit %s = %d %v, want a 400 naming %q", body, code, doc, field)
		}
	}
	if got := s.Metrics().Counter("serve_jobs_accepted_total").Value(); got != 0 {
		t.Fatalf("specs with unknown fields accepted %d jobs", got)
	}
}

// TestCancelAndResultConflicts covers a result request waiting on a
// queued job that a cancel settles (409 naming the state, well inside the
// hold), double cancel, and unknown IDs. With no executors the job would
// otherwise stay queued, so only the cancel can release the wait.
func TestCancelAndResultConflicts(t *testing.T) {
	s := newTestService(t, Options{Executors: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec, _ := json.Marshal(JobSpec{Synthetic: "face-scene", Scale: 0.001})
	_, _, doc := doJSON(t, "POST", ts.URL+"/api/v1/jobs", spec)
	id := doc["id"].(string)

	got := asyncGet(ts.URL + "/api/v1/jobs/" + id + "/result")
	waitForWaiter(t, s, id)
	if code, _, d := doJSON(t, "DELETE", ts.URL+"/api/v1/jobs/"+id, nil); code != http.StatusAccepted {
		t.Fatalf("cancel = %d %v", code, d)
	}
	if r := awaitReleased(t, got, "cancel"); r.code != http.StatusConflict || !strings.Contains(r.doc["error"].(string), "canceled") {
		t.Fatalf("waiting result after cancel = %d %v, want 409 canceled", r.code, r.doc)
	}
	if code, _, d := doJSON(t, "GET", ts.URL+"/api/v1/jobs/"+id, nil); code != http.StatusOK || d["state"] != "canceled" {
		t.Fatalf("status after cancel = %d %v", code, d)
	}
	if code, _, d := doJSON(t, "DELETE", ts.URL+"/api/v1/jobs/"+id, nil); code != http.StatusConflict {
		t.Fatalf("double cancel = %d %v, want 409", code, d)
	}
	if code, _, d := doJSON(t, "GET", ts.URL+"/api/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown status = %d %v, want 404", code, d)
	}
	if code, _, d := doJSON(t, "GET", ts.URL+"/api/v1/jobs/nope/result", nil); code != http.StatusNotFound {
		t.Fatalf("unknown result = %d %v, want 404", code, d)
	}
	if code, _, d := doJSON(t, "DELETE", ts.URL+"/api/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown cancel = %d %v, want 404", code, d)
	}
}

// TestRestartResumesJobs proves the core durability contract without
// chaos: a server closed with queued jobs restarts, replays the journal,
// runs them to completion, and serves their results.
func TestRestartResumesJobs(t *testing.T) {
	dir := t.TempDir()
	blob := tinyBlob(t)

	first, err := New(Options{Dir: dir, Executors: -1})
	if err != nil {
		t.Fatal(err)
	}
	hash, err := first.store.Put(blob)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 2; i++ {
		id, err := first.Submit(context.Background(), JobSpec{Dataset: string(hash), Name: fmt.Sprintf("resume-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	second := newTestService(t, Options{Dir: dir, ChunkVoxels: 8, Executors: 2})
	ts := httptest.NewServer(second.Handler())
	defer ts.Close()
	for _, id := range ids {
		waitState(t, second, ts.URL, id, stateDone, 30*time.Second)
		code, _, doc := doJSON(t, "GET", ts.URL+"/api/v1/jobs/"+id+"/result", nil)
		if code != http.StatusOK || len(doc["scores"].([]any)) != 24 {
			t.Fatalf("resumed result %s = %d %v", id, code, doc)
		}
	}
	// New IDs must not collide with replayed ones.
	id3, err := second.Submit(context.Background(), JobSpec{Dataset: string(hash)})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if id3 == id {
			t.Fatalf("resumed server reissued job id %s", id3)
		}
	}
}

// TestCancelChurnKeepsIDsUnique submits and cancels one queued job at a
// time, seven times, at QueueCap 1 with no executor: a canceled job leaves
// nothing queued behind it, so every submit is accepted under a new id,
// and the directory reopens with the seven canceled jobs.
func TestCancelChurnKeepsIDsUnique(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Dir: dir, QueueCap: 1, Executors: -1})
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for i := 0; i < 7; i++ {
		code, body := postJob(t, s, JobSpec{Synthetic: "face-scene", Scale: 0.001})
		if code != http.StatusAccepted || ids[body["id"]] {
			t.Fatalf("submit %d answered %d %v; ids before it %v", i, code, body, ids)
		}
		ids[body["id"]] = true
		if err := s.Cancel(body["id"]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	reopened := newTestService(t, Options{Dir: dir, Executors: -1})
	reopened.mu.Lock()
	defer reopened.mu.Unlock()
	for id, job := range reopened.jobs {
		if !ids[id] || job.State != stateCanceled {
			t.Errorf("reopened job %s is %s, want one of the %d canceled", id, job.State, len(ids))
		}
	}
	if len(reopened.jobs) != len(ids) {
		t.Fatalf("reopened %d jobs, want the %d canceled", len(reopened.jobs), len(ids))
	}
}

// TestReopenBelowJournaledBacklog reopens a directory holding 16 accepted
// jobs at QueueCap 2. Admission limits only new submits: New returns at
// once, and the service resumes all 16, in id order.
func TestReopenBelowJournaledBacklog(t *testing.T) {
	dir := t.TempDir()
	first, err := New(Options{Dir: dir, QueueCap: 16, TenantCap: 16, Executors: -1})
	if err != nil {
		t.Fatal(err)
	}
	hash, err := first.store.Put(tinyBlob(t))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 16; i++ {
		id, err := first.Submit(t.Context(), JobSpec{Dataset: string(hash)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	opened := make(chan *Service, 1)
	go func() {
		s, err := New(Options{Dir: dir, QueueCap: 2, ChunkVoxels: 8, Executors: 1, FS: watchFS(nil)})
		if err != nil {
			t.Error(err)
		}
		opened <- s
	}()
	var s *Service
	select {
	case s = <-opened:
	case <-time.After(10 * time.Second):
		t.Fatal("New did not return reopening 16 journaled jobs at QueueCap 2")
	}
	if s == nil {
		return
	}
	waitSettled(t, s, 60*time.Second)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var ran []string
	for _, rec := range journalStates(t, filepath.Join(dir, "jobs.jnl")) {
		if rec.State == stateRunning {
			ran = append(ran, rec.ID)
		}
	}
	if !slices.Equal(ran, ids) {
		t.Fatalf("resumed jobs ran in the order %v, want %v", ran, ids)
	}
	for _, id := range ids {
		if n := countTerminalRecords(t, filepath.Join(dir, "jobs.jnl"))[id]; n != 1 {
			t.Fatalf("job %s has %d done records, want 1", id, n)
		}
	}
}

// TestRestartReplaysParentFormatSpec replays an accept record as the
// previous release journaled it — the spec still carrying the retired
// "engine" key — through a restarted service: submission is strict about
// unknown fields, replay is not, and the job finishes on the one engine
// with the spec's TopK honoured.
func TestRestartReplaysParentFormatSpec(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, filepath.Join(dir, "jobs.jnl"), nil)
	rec := `{"id":"job-00000007","spec":{"synthetic":"attention","scale":0.001,"name":"at-base","engine":"baseline","top_k":3}}`
	if err := j.append(append([]byte{srAccept}, rec...), true); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	s := newTestService(t, Options{Dir: dir, ChunkVoxels: 8, Executors: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	waitState(t, s, ts.URL, "job-00000007", stateDone, 30*time.Second)
	code, _, doc := doJSON(t, "GET", ts.URL+"/api/v1/jobs/job-00000007/result", nil)
	if code != http.StatusOK || len(doc["scores"].([]any)) != 3 {
		t.Fatalf("replayed result = %d %v, want the top 3", code, doc)
	}
}

// TestDrainKeepsIDFloor proves the drain protocol: submissions refused,
// readiness flipped, and, once every job is terminal, the journal reduced
// to its id floor. The next service in the directory lists no job and
// hands out no id the drained one did.
func TestDrainKeepsIDFloor(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Dir: dir, ChunkVoxels: 8, Executors: 1, FS: watchFS(nil)})
	if err != nil {
		t.Fatal(err)
	}
	hash, err := s.store.Put(tinyBlob(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	drained := map[string]bool{}
	for i := 0; i < 2; i++ {
		id, err := s.Submit(context.Background(), JobSpec{Dataset: string(hash)})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, ts.URL, id, stateDone, 30*time.Second)
		drained[id] = true
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if ok, reason := s.Readiness().Ready(); ok || reason != "draining" {
		t.Fatalf("readiness after drain = (%v, %q)", ok, reason)
	}
	if _, err := s.Submit(context.Background(), JobSpec{Dataset: string(hash)}); err == nil {
		t.Fatal("drained server accepted a job")
	}

	next := newTestService(t, Options{Dir: dir, Executors: -1})
	next.mu.Lock()
	listed := len(next.jobs)
	next.mu.Unlock()
	if listed != 0 {
		t.Fatalf("the service after a clean drain lists %d jobs, want none", listed)
	}
	id, err := next.Submit(context.Background(), JobSpec{Dataset: string(hash)})
	if err != nil {
		t.Fatal(err)
	}
	if drained[id] {
		t.Fatalf("the service after a clean drain handed out %s again (drained: %v)", id, drained)
	}
}

// TestDrainKeepsUnsettledJournal proves a drain with queued work retains
// the journal so a restart loses nothing.
func TestDrainKeepsUnsettledJournal(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Dir: dir, Executors: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), JobSpec{Synthetic: "face-scene", Scale: 0.001}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs.jnl")); err != nil {
		t.Fatalf("journal with queued work removed: %v", err)
	}

	// The retained journal resumes.
	second := newTestService(t, Options{Dir: dir, Executors: -1})
	second.mu.Lock()
	n := len(second.jobs)
	second.mu.Unlock()
	if n != 1 {
		t.Fatalf("restart replayed %d jobs, want 1", n)
	}
}

// TestDatasetCacheHitsAndEviction proves repeated jobs share the built
// epoch stack and a budget, in stack bytes, that holds either of two
// stacks but not both evicts.
func TestDatasetCacheHitsAndEviction(t *testing.T) {
	ctx := context.Background()
	s := newTestService(t, Options{Executors: -1, CacheBudget: 1 << 30})
	hash, err := s.store.Put(tinyBlob(t))
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.store.Get(ctx, JobSpec{}, hash)
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.store.Get(ctx, JobSpec{}, hash)
	if err != nil {
		t.Fatal(err)
	}
	if hits := s.Metrics().Counter("serve_dataset_cache_hits_total").Value(); hits != 1 || again != first {
		t.Fatalf("cache hits = %d (same stack %v), want 1 hit on the cached stack", hits, again == first)
	}

	fs, err := s.store.Get(ctx, JobSpec{Synthetic: "face-scene", Scale: 0.001}, "")
	if err != nil {
		t.Fatal(err)
	}
	sizeTiny := stackBytes(int64(first.M()*first.T), int64(first.N))
	sizeFS := stackBytes(int64(fs.M()*fs.T), int64(fs.N))
	if want := int64(first.M()*first.T*first.N*4 + 1<<16); sizeTiny != want {
		t.Fatalf("tiny stack sized %d bytes, want M·T·N·4 + 64 KiB = %d", sizeTiny, want)
	}
	// Admission charges at least the stack the cache will hold.
	if est := s.store.estimateBytes(JobSpec{Synthetic: "face-scene", Scale: 0.001}, ""); est < sizeFS {
		t.Fatalf("admission estimates %d bytes, below the built stack's %d", est, sizeFS)
	}
	small := newTestService(t, Options{Executors: -1, CacheBudget: sizeTiny + sizeFS - 1})
	if _, err := small.store.Put(tinyBlob(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := small.store.Get(ctx, JobSpec{}, hash); err != nil {
		t.Fatal(err)
	}
	if ev := small.Metrics().Counter("serve_dataset_cache_evictions_total").Value(); ev != 0 {
		t.Fatalf("%d evictions with one stack resident", ev)
	}
	if _, err := small.store.Get(ctx, JobSpec{Synthetic: "face-scene", Scale: 0.001}, ""); err != nil {
		t.Fatal(err)
	}
	if ev := small.Metrics().Counter("serve_dataset_cache_evictions_total").Value(); ev == 0 {
		t.Fatal("tight cache budget never evicted")
	}
}

// TestTraversalDatasetRejected proves a job spec cannot smuggle a path
// into the blob store over HTTP: Dataset must be the sha256 hex the
// upload endpoint returned. (The store takes only a datasetID, so there
// is no unchecked way in left to test.)
func TestTraversalDatasetRejected(t *testing.T) {
	s := newTestService(t, Options{Executors: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, dataset := range []string{
		"../../../../etc/passwd",
		"../jobs.jnl",
		"ABCDEF0123456789ABCDEF0123456789ABCDEF0123456789ABCDEF0123456789", // uppercase
		"deadbeef", // too short
	} {
		spec, _ := json.Marshal(JobSpec{Dataset: dataset})
		code, _, doc := doJSON(t, "POST", ts.URL+"/api/v1/jobs", spec)
		if code != http.StatusBadRequest {
			t.Fatalf("submit dataset %q = %d %v, want 400", dataset, code, doc)
		}
	}
	if got := s.Metrics().Counter("serve_jobs_accepted_total").Value(); got != 0 {
		t.Fatalf("traversal specs accepted %d jobs", got)
	}
}

// TestParseDatasetID pins what a dataset reference is: exactly 64
// lowercase hex digits, and nothing a path could be built from.
func TestParseDatasetID(t *testing.T) {
	hash := strings.Repeat("0123456789abcdef", 4)
	for in, want := range map[string]bool{
		hash:                       true,
		"../jobs.jnl":              false,
		"../../../../etc/passwd":   false,
		strings.ToUpper(hash):      false,
		hash[:63]:                  false,
		hash + "0":                 false,
		hash[:63] + "g":            false,
		hash[:61] + "/..":          false,
		"":                         false,
		strings.Repeat("ab", 32):   true,
		strings.Repeat("\x00", 64): false,
	} {
		id, ok := parseDatasetID(in)
		if ok != want || (ok && string(id) != in) || (!ok && id != "") {
			t.Errorf("parseDatasetID(%q) = (%q, %v), want ok=%v", in, id, ok, want)
		}
	}
}

// TestReplayRejectsInvalidSpec proves journal replay runs the same
// validate as submit: an accept record naming a path, or a scale that
// would generate an unbounded dataset, makes New fail with the WAL's
// apply error and leaves the journal byte-identical for inspection.
func TestReplayRejectsInvalidSpec(t *testing.T) {
	for _, spec := range []string{
		`{"dataset":"../jobs.jnl"}`,
		`{"synthetic":"face-scene","scale":50}`,
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, "jobs.jnl")
		j := mustOpen(t, path, nil)
		rec := `{"id":"job-00000001","spec":` + spec + `}`
		if err := j.append(append([]byte{srAccept}, rec...), true); err != nil {
			t.Fatal(err)
		}
		if err := j.close(); err != nil {
			t.Fatal(err)
		}
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Options{Dir: dir, Executors: -1})
		var aerr *wal.ApplyError
		if err == nil {
			s.Close()
			t.Fatalf("spec %s: New replayed it", spec)
		} else if !errors.As(err, &aerr) {
			t.Fatalf("spec %s: New error = %v, want *wal.ApplyError", spec, err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("spec %s: rejected journal was modified: %d -> %d bytes", spec, len(before), len(after))
		}
	}
}

// TestPutRepairsMissingSidecar proves a crash between writing a blob and
// its meta sidecar is healed by the next upload of the same bytes,
// instead of the dedup early-return leaving the dataset unsizable
// forever.
func TestPutRepairsMissingSidecar(t *testing.T) {
	s := newTestService(t, Options{Executors: -1})
	blob := tinyBlob(t)
	hash, err := s.store.Put(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: blob present, sidecar gone.
	if err := os.Remove(s.store.blobPath(hash) + ".json"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.store.Meta(hash); err == nil {
		t.Fatal("Meta found a sidecar that was removed")
	}
	if got, err := s.store.Put(blob); err != nil || got != hash {
		t.Fatalf("re-upload = (%q, %v), want (%q, nil)", got, err, hash)
	}
	meta, err := s.store.Meta(hash)
	if err != nil {
		t.Fatalf("sidecar not repaired by re-upload: %v", err)
	}
	if meta.Voxels != 24 {
		t.Fatalf("repaired meta = %+v", meta)
	}
}

// TestJobTimeoutBoundsOneAttempt proves the job timeout is a per-attempt
// budget: a job whose every attempt times out still consumes its full
// retry allowance before failing, rather than the first deadline
// cancelling the whole retry loop.
func TestJobTimeoutBoundsOneAttempt(t *testing.T) {
	s := newTestService(t, Options{ChunkVoxels: 8, Executors: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// 1ms can never cover an attempt at this scale, so all three attempts
	// must run and time out.
	spec, _ := json.Marshal(JobSpec{Synthetic: "face-scene", Scale: 0.02, TimeoutMS: 1, Retries: 2})
	code, _, doc := doJSON(t, "POST", ts.URL+"/api/v1/jobs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d %v", code, doc)
	}
	id := doc["id"].(string)
	waitState(t, s, ts.URL, id, stateFailed, 30*time.Second)

	_, _, doc = doJSON(t, "GET", ts.URL+"/api/v1/jobs/"+id, nil)
	if doc["attempts"].(float64) != 3 {
		t.Fatalf("attempts = %v, want 3 (timeout must not cancel the retry loop)", doc["attempts"])
	}
	if msg := doc["error"].(string); !strings.Contains(msg, "timed out after 3 attempts") {
		t.Fatalf("failure message %q, want a 3-attempt timeout", msg)
	}
}

// TestUploadRejectsGarbage proves the dataset endpoint validates before
// storing.
func TestUploadRejectsGarbage(t *testing.T) {
	s := newTestService(t, Options{Executors: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, _, doc := doJSON(t, "POST", ts.URL+"/api/v1/datasets", []byte("not a dataset"))
	if code != http.StatusBadRequest {
		t.Fatalf("garbage upload = %d %v, want 400", code, doc)
	}
}
