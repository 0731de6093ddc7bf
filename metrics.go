package fcma

import (
	"io"

	"fcma/internal/obs"
)

// Metrics is a registry of named counters, gauges, and latency histograms
// that the pipeline records into as it runs (see DESIGN.md §10 for the
// metric inventory). Attach one to Config.Metrics to observe a run in
// isolation; leave it nil and the pipeline records to the shared
// process-wide registry returned by DefaultMetrics.
type Metrics = obs.Registry

// MetricsSnapshot is a point-in-time copy of a Metrics registry, suitable
// for merging across workers and serializing.
type MetricsSnapshot = obs.Snapshot

// NewMetrics returns an empty, isolated metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// DefaultMetrics returns the process-wide registry: the destination of
// package-level instrumentation (kernel block counts, parallel-driver
// item counts, SVM fold counts, real-time loop latencies) and of any
// component whose registry is left nil.
func DefaultMetrics() *Metrics { return obs.Default() }

// WriteMetrics writes the registry's current state to w in the Prometheus
// text exposition format — the same content a -listen endpoint serves at
// /metrics.
func WriteMetrics(w io.Writer, m *Metrics) error {
	if m == nil {
		m = obs.Default()
	}
	return m.WritePrometheus(w)
}

// ServeMetrics starts an HTTP server on addr (e.g. ":9090" or
// "127.0.0.1:0") serving /metrics in Prometheus text format and Go
// profiling under /debug/pprof/. Close the returned server to stop it;
// its Addr method reports the bound address.
func ServeMetrics(addr string, m *Metrics) (*obs.Server, error) {
	if m == nil {
		m = obs.Default()
	}
	return obs.ServeFunc(addr, m.Snapshot)
}
