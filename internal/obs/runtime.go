package obs

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
)

// Process vitals for /metrics. These are read fresh at scrape time inside
// NewMux rather than stored in a Registry: they describe the scraped
// process, so they must not be merged across ranks the way pipeline
// counters are, and sampling on demand means idle processes pay nothing.

// gcPauseBuckets spans 10µs to ~1s — GC pauses live well below the
// defaultLatencyBuckets floor.
var gcPauseBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1,
}

var runtimeSamples = []metrics.Sample{
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

// writeRuntimeProm renders Go runtime health series — goroutines, heap
// bytes, cumulative allocated bytes, GC cycles, a GC pause histogram, and
// open file descriptors — in Prometheus text format. Called per scrape by
// the NewMux /metrics handler so every binary carries process vitals.
func writeRuntimeProm(w io.Writer) error {
	samples := make([]metrics.Sample, len(runtimeSamples))
	copy(samples, runtimeSamples)
	metrics.Read(samples)

	if _, err := fmt.Fprintf(w, "# TYPE go_goroutines gauge\ngo_goroutines %d\n", runtime.NumGoroutine()); err != nil {
		return err
	}
	if v := samples[0].Value; v.Kind() == metrics.KindUint64 {
		if _, err := fmt.Fprintf(w, "# TYPE go_heap_objects_bytes gauge\ngo_heap_objects_bytes %d\n", v.Uint64()); err != nil {
			return err
		}
	}
	if v := samples[1].Value; v.Kind() == metrics.KindUint64 {
		if _, err := fmt.Fprintf(w, "# TYPE go_heap_allocs_bytes_total counter\ngo_heap_allocs_bytes_total %d\n", v.Uint64()); err != nil {
			return err
		}
	}
	var gc runtime.MemStats // NumGC + next target without a full heap walk
	runtime.ReadMemStats(&gc)
	if _, err := fmt.Fprintf(w, "# TYPE go_gc_cycles_total counter\ngo_gc_cycles_total %d\n", gc.NumGC); err != nil {
		return err
	}
	if v := samples[2].Value; v.Kind() == metrics.KindFloat64Histogram {
		if err := writeRuntimeHist(w, "go_gc_pause_seconds", v.Float64Histogram()); err != nil {
			return err
		}
	}
	if n, ok := openFDs(); ok {
		if _, err := fmt.Fprintf(w, "# TYPE process_open_fds gauge\nprocess_open_fds %d\n", n); err != nil {
			return err
		}
	}
	return nil
}

// writeRuntimeHist re-buckets a runtime/metrics float64 histogram (very
// fine-grained, implementation-defined bounds) onto gcPauseBuckets and
// renders it as a cumulative Prometheus histogram.
func writeRuntimeHist(w io.Writer, name string, h *metrics.Float64Histogram) error {
	counts := make([]uint64, len(gcPauseBuckets)+1)
	var sum float64
	var total uint64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		// A runtime bucket spans (Buckets[i], Buckets[i+1]]; attribute its
		// counts to the target bucket of its upper edge. The runtime's
		// overflow bucket has hi=+Inf — fall back to its finite lower edge
		// so the sum stays finite.
		hi := h.Buckets[i+1]
		if math.IsInf(hi, 1) {
			hi = h.Buckets[i]
		}
		j := len(gcPauseBuckets)
		for k, b := range gcPauseBuckets {
			if hi <= b {
				j = k
				break
			}
		}
		counts[j] += c
		total += c
		sum += float64(c) * hi
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	var cum uint64
	for i, b := range gcPauseBuckets {
		cum += counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatBound(b), cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
		name, total, name, sum, name, total)
	return err
}

// openFDs counts this process's open file descriptors via /proc (Linux).
// Returns ok=false where /proc is unavailable.
func openFDs() (int, bool) {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0, false
	}
	return len(ents), true
}
