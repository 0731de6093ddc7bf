package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"fcma"
	"fcma/internal/fmri"
)

// FuzzJobSpecDecode drives the submit handler's decode and validation with
// arbitrary bytes: never a panic, and a spec that is accepted is one the
// server can write down and read back — it re-marshals to the same spec,
// which still validates (what the journal's accept record relies on).
func FuzzJobSpecDecode(f *testing.F) {
	f.Add([]byte(`{"synthetic":"face-scene","scale":0.02,"name":"x","tenant":"t","top_k":5}`))
	f.Add([]byte(`{"dataset":"` + strings.Repeat("ab", 32) + `","timeout_ms":100,"retries":-1}`))
	f.Add([]byte(`{"synthetic":"attention","engine":"baseline"}`))
	f.Add([]byte(`{"dataset":"../jobs.jnl"}`))
	f.Add([]byte(`{"synthetic":"attention","scale":1e999}`))
	f.Add([]byte(`{"synthetic":"attention"} trailing`))
	f.Add([]byte{})
	st := testStore(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		if _, err := spec.validate(st); err != nil {
			return
		}
		again, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec %+v does not marshal: %v", spec, err)
		}
		back, err := decodeSpec(bytes.NewReader(again))
		_, verr := back.validate(st)
		if err != nil || back != spec || verr != nil {
			t.Fatalf("accepted spec %+v re-marshals to %s, which decodes to %+v (err %v, validate %v)",
				spec, again, back, err, verr)
		}
	})
}

// FuzzDatasetBlob drives the upload path's decode — the blob framing, then
// the one dataset reader — with arbitrary bytes: never a panic, never an
// allocation sized by a header rather than by the bytes that arrived beyond
// the reader's bounded first one (the readFrame lesson: the seed claiming
// the reader's whole 2^28-element budget in a 636-byte blob used to cost
// 1 GiB), and a dataset that is accepted passes Validate.
func FuzzDatasetBlob(f *testing.F) {
	ds, err := fmri.Generate(fmri.Spec{
		Name: "fuzz", Voxels: 6, Subjects: 2, EpochsPerSubject: 2,
		EpochLen: 4, RestLen: 1, SignalVoxels: 2, Coupling: 0.8, Seed: 3,
	})
	if err != nil {
		f.Fatal(err)
	}
	blob, err := encodeDataset(ds)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:20])
	f.Add([]byte{})
	// After the 8-byte length prefix: magic, version, then voxels and time.
	greedy := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(greedy[8+8:], 1<<14)
	binary.LittleEndian.PutUint32(greedy[8+12:], 1<<14)
	f.Add(greedy)
	// Dimensions whose product wraps int64 (found by this fuzzer: the budget
	// check passed and the reader panicked sizing a negative matrix).
	wrapping := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(wrapping[8+8:], 0xf915dbfb)
	binary.LittleEndian.PutUint32(wrapping[8+12:], 0xcde25ae2)
	f.Add(wrapping)
	// 2^24 subjects (also found here: Validate sized its per-subject counts
	// by the header's word — 128 MiB for this one, 32 GiB at the limit).
	crowded := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(crowded[8+16:], 1<<24)
	f.Add(crowded)
	f.Fuzz(func(t *testing.T, blob []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ds, err := decodeDataset(blob)
		runtime.ReadMemStats(&after)
		// 16 MiB is the reader's first allocation, the most a header alone buys.
		if grew, allowed := after.TotalAlloc-before.TotalAlloc, uint64(17<<20+64*len(blob)); grew > allowed {
			t.Fatalf("decoding a %d-byte blob allocated %d bytes, more than the %d its size explains", len(blob), grew, allowed)
		}
		if err != nil {
			return
		}
		if err := ds.Validate(); err != nil {
			t.Fatalf("accepted dataset does not validate: %v", err)
		}
	})
}

// loadBlob reads an upload blob the way a library user reads the files it
// frames.
func loadBlob(t *testing.T, blob []byte) *fcma.Data {
	t.Helper()
	dataLen := binary.LittleEndian.Uint64(blob)
	d, err := fcma.Load(bytes.NewReader(blob[8:8+dataLen]), bytes.NewReader(blob[8+dataLen:]))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestResultIdenticalAcrossChunkVoxels pins the checkpoint granularity out
// of the result: one dataset submitted to services chunking at 1, 8, N and
// more than N voxels returns byte-identical result bodies, equal voxel for
// voxel to fcma.SelectVoxels on the same data.
func TestResultIdenticalAcrossChunkVoxels(t *testing.T) {
	blob := tinyBlob(t)
	d := loadBlob(t, blob)
	want, err := fcma.SelectVoxels(d, fcma.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var first []byte
	for _, chunk := range []int{1, 8, d.Voxels(), 64} {
		s := newTestService(t, Options{ChunkVoxels: chunk, Executors: 1})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		code, _, doc := doJSON(t, "POST", ts.URL+"/api/v1/datasets", blob)
		if code != http.StatusCreated {
			t.Fatalf("chunk %d: upload = %d %v", chunk, code, doc)
		}
		spec, _ := json.Marshal(JobSpec{Dataset: doc["hash"].(string)})
		code, _, doc = doJSON(t, "POST", ts.URL+"/api/v1/jobs", spec)
		if code != http.StatusAccepted {
			t.Fatalf("chunk %d: submit = %d %v", chunk, code, doc)
		}
		id := doc["id"].(string)
		waitState(t, s, ts.URL, id, stateDone, 30*time.Second)
		resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("chunk %d: result = %d (read: %v)", chunk, resp.StatusCode, err)
		}
		if first != nil {
			if !bytes.Equal(body, first) {
				t.Fatalf("chunk %d: result body differs from chunk 1's:\n%s\nvs\n%s", chunk, body, first)
			}
			continue
		}
		first = body
		var got struct{ Scores []resultScore }
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if len(got.Scores) != len(want) {
			t.Fatalf("service ranked %d voxels, fcma.SelectVoxels %d", len(got.Scores), len(want))
		}
		for i, sc := range got.Scores {
			if sc.Voxel != want[i].Voxel || sc.Accuracy != want[i].Accuracy {
				t.Fatalf("rank %d: service %+v, fcma.SelectVoxels %+v", i, sc, want[i])
			}
		}
	}
}
