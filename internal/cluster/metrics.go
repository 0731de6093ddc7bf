package cluster

import (
	"sync"

	"fcma/internal/obs"
)

// ClusterMetrics collects the registry snapshots workers ship inside their
// reports. Allocate one and hand it to the master via
// MasterOptions.Metrics; after (or during) a run, Workers gives the latest
// snapshot per rank and Merged the cluster-wide aggregate. All methods are
// safe for concurrent use with a running master.
type ClusterMetrics struct {
	mu      sync.Mutex
	origins map[uint64]shipped
}

// shipped is the latest snapshot of one registry and the rank that sent it.
type shipped struct {
	rank int
	snap obs.Snapshot
}

// record stores s as the latest snapshot of its registry, under rank.
// A worker ships what its registry counted since its session began, which
// only grows, so last-wins is the correct merge; keying by origin counts a
// registry once however many ranks shipped it (in-process ranks may share
// one, and a worker process keeps its registry across a rejoin under a
// fresh rank, when the latest session's counts replace the last one's). A
// snapshot of no registry (origin 0) records nothing.
func (c *ClusterMetrics) record(rank int, s obs.Snapshot) {
	if c == nil || s.Origin == 0 {
		return
	}
	c.mu.Lock()
	if c.origins == nil {
		c.origins = make(map[uint64]shipped)
	}
	c.origins[s.Origin] = shipped{rank, s}
	c.mu.Unlock()
}

// Workers returns the latest snapshot for each rank that has reported.
func (c *ClusterMetrics) Workers() map[int]obs.Snapshot {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]obs.Snapshot, len(c.origins))
	for _, e := range c.origins {
		out[e.rank] = e.snap
	}
	return out
}

// Merged aggregates the latest snapshot of every registry: counters and
// histogram totals sum, gauges keep an arbitrary reporter's value.
func (c *ClusterMetrics) Merged() obs.Snapshot {
	var merged obs.Snapshot
	if c == nil {
		return merged
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.origins {
		merged.Merge(e.snap)
	}
	return merged
}
