package serve

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"fcma/internal/chaos"
	"fcma/internal/corr"
	"fcma/internal/fmri"
	"fcma/internal/obs"
)

// datasetStore is the service's content-addressed dataset layer: uploaded
// datasets live on disk under <dir>/datasets/<sha256> (written atomically
// so a crash mid-upload leaves no partial blob), and the epoch stacks
// jobs run on, built from uploaded or synthetic data, are held in a
// byte-budgeted LRU so repeated jobs over the same data skip the decode
// and the normalization, evicting under pressure rather than growing
// without bound. Only corr.EpochStack.AppendEpoch, which the service
// never calls, writes a built stack, so concurrent jobs share one.
type datasetStore struct {
	dir     string
	fsys    chaos.FS
	reg     *obs.Registry
	workers int // stack-build parallelism; 0 means GOMAXPROCS

	mu     sync.Mutex
	budget int64
	used   int64
	lru    *list.List               // front = most recent; values are *cacheEntry
	byKey  map[string]*list.Element // cache key -> lru element
}

// cacheEntry is one epoch stack resident in memory.
type cacheEntry struct {
	key   string
	stack *corr.EpochStack
	size  int64
}

// datasetMeta is the sidecar the store writes next to each blob so
// admission can estimate a job's memory footprint without decoding it.
type datasetMeta struct {
	Voxels     int `json:"voxels"`
	TimePoints int `json:"time_points"`
	Subjects   int `json:"subjects"`
}

// newDatasetStore roots the store at dir (created if missing); stacks are
// built with workers goroutines.
func newDatasetStore(dir string, fsys chaos.FS, budget int64, workers int, reg *obs.Registry) (*datasetStore, error) {
	if err := os.MkdirAll(filepath.Join(dir, "datasets"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: creating dataset dir: %w", err)
	}
	return &datasetStore{
		dir: dir, fsys: fsys, reg: reg, workers: workers,
		budget: budget,
		lru:    list.New(),
		byKey:  make(map[string]*list.Element),
	}, nil
}

// blobPath returns the on-disk path of a stored blob.
func (s *datasetStore) blobPath(id datasetID) string {
	return filepath.Join(s.dir, "datasets", string(id))
}

// Put stores an uploaded dataset blob (encodeDataset framing: u64 data
// length, WriteData binary, WriteEpochs text), verifies it decodes, and
// returns its content hash.
// The blob and its metadata sidecar are written atomically, so admission
// never sees a hash whose bytes might be torn.
func (s *datasetStore) Put(blob []byte) (datasetID, error) {
	ds, err := decodeDataset(blob)
	if err != nil {
		return "", fmt.Errorf("serve: uploaded dataset invalid: %w", err)
	}
	sum := sha256.Sum256(blob)
	hash := datasetID(hex.EncodeToString(sum[:]))
	path := s.blobPath(hash)
	blobExists := false
	if _, err := os.Stat(path); err == nil {
		if _, err := os.Stat(path + ".json"); err == nil {
			return hash, nil // content-addressed: same bytes, same blob
		}
		// A crash between blob and sidecar left the meta missing; fall
		// through and (re)write it so admission can size this dataset.
		blobExists = true
	}
	if !blobExists {
		if err := chaos.WriteFileAtomic(s.fsys, path, blob, 0o644); err != nil {
			return "", fmt.Errorf("serve: storing dataset: %w", err)
		}
	}
	meta, err := json.Marshal(datasetMeta{Voxels: ds.Voxels(), TimePoints: ds.TimePoints(), Subjects: ds.Subjects})
	if err != nil {
		return "", fmt.Errorf("serve: encoding dataset meta: %w", err)
	}
	if err := chaos.WriteFileAtomic(s.fsys, path+".json", meta, 0o644); err != nil {
		return "", fmt.Errorf("serve: storing dataset meta: %w", err)
	}
	s.reg.Counter("serve_datasets_stored_total").Inc()
	return hash, nil
}

// Meta loads the dimension sidecar for a stored dataset.
func (s *datasetStore) Meta(id datasetID) (datasetMeta, error) {
	data, err := os.ReadFile(s.blobPath(id) + ".json")
	if err != nil {
		return datasetMeta{}, fmt.Errorf("serve: unknown dataset %s", id)
	}
	var m datasetMeta
	if err := json.Unmarshal(data, &m); err != nil {
		return datasetMeta{}, fmt.Errorf("serve: dataset meta %s: %w", id, err)
	}
	return m, nil
}

// Get returns the epoch stack of a job's dataset (the synthetic shape its
// spec names, else blob id), from cache when resident, otherwise
// decoding or generating the dataset and building the stack under ctx.
func (s *datasetStore) Get(ctx context.Context, spec JobSpec, id datasetID) (*corr.EpochStack, error) {
	// Synthetic generation is seeded, so equal name and scale mean
	// bit-identical data; uploads are keyed by content hash.
	key := "blob/" + string(id)
	if spec.Synthetic != "" {
		key = fmt.Sprintf("synthetic/%s@%g", spec.Synthetic, spec.scale())
	}
	if st := s.lookup(key); st != nil {
		s.reg.Counter("serve_dataset_cache_hits_total").Inc()
		return st, nil
	}
	s.reg.Counter("serve_dataset_cache_misses_total").Inc()
	var ds *fmri.Dataset
	var err error
	if spec.Synthetic != "" {
		ds, err = fmri.Generate(syntheticSpec(spec))
		if err != nil {
			return nil, fmt.Errorf("serve: generating %s: %w", spec.Synthetic, err)
		}
	} else {
		blob, rerr := os.ReadFile(s.blobPath(id))
		if rerr != nil {
			return nil, fmt.Errorf("serve: unknown dataset %s", id)
		}
		if ds, err = decodeDataset(blob); err != nil {
			return nil, fmt.Errorf("serve: dataset %s: %w", id, err)
		}
	}
	st, err := corr.BuildEpochStackContext(ctx, ds, s.workers)
	if err != nil {
		return nil, err
	}
	s.insert(key, st)
	return st, nil
}

// syntheticSpec maps a job spec to the deterministic generator spec.
func syntheticSpec(spec JobSpec) fmri.Spec {
	if spec.Synthetic == "attention" {
		return fmri.AttentionSpec(spec.scale())
	}
	return fmri.FaceSceneSpec(spec.scale())
}

// lookup returns a resident stack and refreshes its recency.
func (s *datasetStore) lookup(key string) *corr.EpochStack {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byKey[key]
	if !ok {
		return nil
	}
	s.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).stack
}

// insert caches a built stack, evicting least-recently-used entries until
// the byte budget holds. A stack larger than the whole budget is served
// uncached.
func (s *datasetStore) insert(key string, st *corr.EpochStack) {
	size := stackBytes(int64(st.M())*int64(st.T), int64(st.N))
	if s.budget <= 0 || size > s.budget {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.byKey[key]; dup {
		return
	}
	for s.used+size > s.budget {
		back := s.lru.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*cacheEntry)
		s.lru.Remove(back)
		delete(s.byKey, ev.key)
		s.used -= ev.size
		s.reg.Counter("serve_dataset_cache_evictions_total").Inc()
	}
	s.byKey[key] = s.lru.PushFront(&cacheEntry{key: key, stack: st, size: size})
	s.used += size
	s.reg.Gauge("serve_dataset_cache_bytes").Set(float64(s.used))
}

// stackBytes is the resident size of an epoch stack: epochPoints (M·T)
// × voxels (N) float32 normalized values plus bookkeeping. The cache
// charges it for a built stack and admission for the stack a job will
// build.
func stackBytes(epochPoints, voxels int64) int64 {
	return epochPoints*voxels*4 + 1<<16
}

// encodeDataset builds an upload blob: an 8-byte little-endian length of
// the WriteData section, the section itself, then the WriteEpochs text.
// The explicit length keeps the two sections separable no matter how the
// data reader buffers (fmri.Read takes the matrix through a bufio.Reader,
// which would otherwise swallow the epoch bytes).
func encodeDataset(ds *fmri.Dataset) ([]byte, error) {
	var data, eps bytes.Buffer
	if err := fmri.WriteData(&data, ds); err != nil {
		return nil, err
	}
	if err := fmri.WriteEpochs(&eps, ds.Epochs); err != nil {
		return nil, err
	}
	blob := make([]byte, 8, 8+data.Len()+eps.Len())
	binary.LittleEndian.PutUint64(blob, uint64(data.Len()))
	blob = append(blob, data.Bytes()...)
	return append(blob, eps.Bytes()...), nil
}

// decodeDataset parses an upload blob produced by encodeDataset (or any
// client following the same framing): it splits the two sections and hands
// them to the one dataset reader, which validates what it returns.
func decodeDataset(blob []byte) (*fmri.Dataset, error) {
	if len(blob) < 8 {
		return nil, fmt.Errorf("blob too short for header")
	}
	dataLen := binary.LittleEndian.Uint64(blob)
	if dataLen > uint64(len(blob)-8) {
		return nil, fmt.Errorf("blob data section of %d bytes exceeds the %d available", dataLen, len(blob)-8)
	}
	return fmri.Read(bytes.NewReader(blob[8:8+dataLen]), bytes.NewReader(blob[8+dataLen:]))
}
