package obs

import (
	"runtime"
	"strings"
	"testing"
)

// Every binary's /metrics must carry process vitals: goroutines, heap
// bytes, GC cycles and pause histogram, open FDs (where /proc exists).
func TestWriteRuntimeProm(t *testing.T) {
	runtime.GC() // guarantee at least one GC cycle and pause sample
	var sb strings.Builder
	if err := writeRuntimeProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE go_goroutines gauge\ngo_goroutines ",
		"# TYPE go_heap_objects_bytes gauge\n",
		"# TYPE go_heap_allocs_bytes_total counter\n",
		"# TYPE go_gc_cycles_total counter\n",
		"# TYPE go_gc_pause_seconds histogram\n",
		`go_gc_pause_seconds_bucket{le="+Inf"} `,
		"go_gc_pause_seconds_count ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if _, ok := openFDs(); ok && !strings.Contains(out, "process_open_fds ") {
		t.Fatalf("missing process_open_fds despite readable /proc:\n%s", out)
	}
	if strings.Contains(out, "Inf\n") || strings.Contains(out, "NaN") {
		t.Fatalf("non-finite value leaked into runtime metrics:\n%s", out)
	}
}
