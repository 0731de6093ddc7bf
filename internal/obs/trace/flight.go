package trace

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Event is one flight-recorder entry: a completed span or a log record,
// pre-rendered to text so dumping needs no further state.
type Event struct {
	// TimeNS is when the event was recorded (Unix nanoseconds).
	TimeNS int64
	// Kind classifies the event: "span" or "log".
	Kind string
	// Text is the rendered event line.
	Text string
}

// Flight is a bounded ring buffer of the most recent span and log events
// — the crash flight recorder. It is always recording (one mutexed append
// per event, far below the instrumentation budget since events are span
// ends and log records, not kernel iterations) so that a dump after a
// panic, SIGQUIT, or fatal cluster error shows what the rank was doing in
// its final moments. A nil *Flight ignores everything.
type Flight struct {
	mu   sync.Mutex
	buf  []Event
	next int
	full bool
}

// defaultFlightEvents is the capacity of the process-wide recorder.
const defaultFlightEvents = 512

// newFlight returns a recorder keeping the last n events.
func newFlight(n int) *Flight { return &Flight{buf: make([]Event, n)} }

var defFlight = newFlight(defaultFlightEvents)

// DefaultFlight returns the process-wide flight recorder: span ends and
// obs.Logger records land here automatically.
func DefaultFlight() *Flight { return defFlight }

// Note records one event, evicting the oldest when full. Safe on a nil
// recorder.
func (f *Flight) Note(kind, text string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.buf[f.next] = Event{TimeNS: time.Now().UnixNano(), Kind: kind, Text: text}
	f.next++
	if f.next == len(f.buf) {
		f.next = 0
		f.full = true
	}
	f.mu.Unlock()
}

// Events returns the buffered events, oldest first.
func (f *Flight) Events() []Event {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []Event
	if f.full {
		out = append(out, f.buf[f.next:]...)
	}
	out = append(out, f.buf[:f.next]...)
	return out
}

// Len reports how many events are buffered.
func (f *Flight) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.full {
		return len(f.buf)
	}
	return f.next
}

// Dump writes the buffered events to w, newest last, framed with the
// reason — the black-box readout after a crash.
func (f *Flight) Dump(w io.Writer, reason string) {
	events := f.Events()
	fmt.Fprintf(w, "=== flight recorder dump: %s (%d events) ===\n", reason, len(events))
	for _, e := range events {
		fmt.Fprintf(w, "%s %-4s %s\n",
			time.Unix(0, e.TimeNS).UTC().Format("15:04:05.000000"), e.Kind, e.Text)
	}
	fmt.Fprintf(w, "=== end flight recorder dump ===\n")
}

// The crash-dump hook. Dumps are opt-in (armed by the commands via
// ArmCrashDump) so library users and tests that deliberately exercise
// panics and exhausted retry budgets don't get dumps sprayed over their
// output.
var (
	dumpMu   sync.Mutex
	dumpDst  io.Writer
	dumpPath string
)

// ArmCrashDump directs crash dumps (panic containment, SIGQUIT, fatal
// cluster errors) at w. Passing nil disarms. The commands arm stderr (or
// a file via -flight-out) at startup.
func ArmCrashDump(w io.Writer) {
	dumpMu.Lock()
	dumpDst, dumpPath = w, ""
	dumpMu.Unlock()
}

// ArmCrashDumpFile directs crash dumps at the named file, created (or
// truncated) only when a dump actually fires — a clean run leaves no file.
func ArmCrashDumpFile(path string) {
	dumpMu.Lock()
	dumpDst, dumpPath = nil, path
	dumpMu.Unlock()
}

// DumpNow dumps the default flight recorder to the armed destination; a
// no-op while disarmed. It is the single entry point the recovery paths
// (safe.Recovered, the cluster master's retry-budget abort, the SIGQUIT
// handlers) call.
func DumpNow(reason string) {
	dumpMu.Lock()
	w, path := dumpDst, dumpPath
	dumpMu.Unlock()
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			// The crash path has nowhere else to report: the process is
			// usually dying and the structured logger may be the thing
			// that failed, so stderr is the last resort by design.
			fmt.Fprintf(os.Stderr, "trace: flight dump to %s: %v\n", path, err)
			return
		}
		defer f.Close()
		defFlight.Dump(f, reason)
		return
	}
	if w == nil {
		return
	}
	defFlight.Dump(w, reason)
}
