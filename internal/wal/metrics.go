package wal

import (
	"time"

	"fcma/internal/chaos"
	"fcma/internal/obs"
)

// WAL observability: append/fsync latency and byte throughput per log,
// and replay cost at open. Series carry a log=<name> label so the serve
// journal and the cluster journal stay distinguishable on one /metrics
// page. An unobserved Log (plain Open) has a nil metrics field and pays
// nothing.

// walMetrics holds the resolved instruments for one observed log.
type walMetrics struct {
	appendSec   *obs.Histogram // full Append latency, sync included
	fsyncSec    *obs.Histogram // every fsync: Append(sync), Sync, Close
	appendBytes *obs.Counter   // frame bytes written
	records     *obs.Counter   // records appended
	replaySec   *obs.Gauge     // last open's replay duration
	replayed    *obs.Counter   // records replayed at open
}

func newWALMetrics(reg *obs.Registry, name string) *walMetrics {
	if reg == nil {
		return nil
	}
	l := obs.L("log", name)
	return &walMetrics{
		appendSec:   reg.Histogram("wal_append_seconds", nil, l),
		fsyncSec:    reg.Histogram("wal_fsync_seconds", nil, l),
		appendBytes: reg.Counter("wal_appended_bytes_total", l),
		records:     reg.Counter("wal_records_total", l),
		replaySec:   reg.Gauge("wal_replay_seconds", l),
		replayed:    reg.Counter("wal_replayed_records_total", l),
	}
}

// OpenObserved is Open with instrumentation: append/fsync latency
// histograms, byte/record counters, and replay duration + records-
// replayed recorded into reg under the log=name label. A nil reg behaves
// exactly like Open.
func OpenObserved(fsys chaos.FS, path, magic string, maxRecord uint32, apply func(payload []byte) error, reg *obs.Registry, name string) (*Log, error) {
	m := newWALMetrics(reg, name)
	wrapped := apply
	if m != nil {
		wrapped = func(payload []byte) error {
			m.replayed.Inc()
			return apply(payload)
		}
	}
	start := time.Now()
	l, err := open(fsys, path, magic, maxRecord, wrapped, m)
	if err != nil {
		return nil, err
	}
	if m != nil {
		m.replaySec.Set(time.Since(start).Seconds())
	}
	return l, nil
}

// observeAppend books one completed Append.
func (m *walMetrics) observeAppend(frameBytes int, elapsed, fsync time.Duration, synced bool) {
	if m == nil {
		return
	}
	m.appendSec.Observe(elapsed.Seconds())
	m.appendBytes.Add(uint64(frameBytes))
	m.records.Inc()
	if synced {
		m.fsyncSec.Observe(fsync.Seconds())
	}
}

// observeSync books one standalone fsync (Sync or Close).
func (m *walMetrics) observeSync(elapsed time.Duration) {
	if m == nil {
		return
	}
	m.fsyncSec.Observe(elapsed.Seconds())
}
