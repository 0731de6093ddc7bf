package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"

	"fcma/internal/obs/trace"
)

// The structured logging layer: a thin log/slog wrapper that replaces the
// ad-hoc fmt.Fprintf(os.Stderr, ...) status prints of the commands and
// the cluster. Two properties matter beyond plain slog:
//
//   - every record is teed into the process flight recorder, so a crash
//     dump shows the last log lines interleaved with the last span ends;
//   - the commands pick the wire format (-log-format text|json) once and
//     the whole process, library layers included, follows via
//     slog.SetDefault.

// flightHandler tees records into the flight recorder before delegating.
type flightHandler struct {
	inner slog.Handler
}

func (h flightHandler) Enabled(ctx context.Context, level slog.Level) bool {
	// Record everything into the flight ring even below the sink's level:
	// debug-level breadcrumbs are exactly what a crash dump wants.
	return true
}

func (h flightHandler) Handle(ctx context.Context, r slog.Record) error {
	var b strings.Builder
	b.WriteString(r.Level.String())
	b.WriteByte(' ')
	b.WriteString(r.Message)
	r.Attrs(func(a slog.Attr) bool {
		fmt.Fprintf(&b, " %s=%v", a.Key, a.Value)
		return true
	})
	trace.DefaultFlight().Note("log", b.String())
	if h.inner.Enabled(ctx, r.Level) {
		return h.inner.Handle(ctx, r)
	}
	return nil
}

func (h flightHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return flightHandler{inner: h.inner.WithAttrs(attrs)}
}

func (h flightHandler) WithGroup(name string) slog.Handler {
	return flightHandler{inner: h.inner.WithGroup(name)}
}

// NewLogger builds a structured logger writing to w in the given format
// ("json", or anything else for the human-readable text form), with every
// record also teed into the process flight recorder. attrs (rank, role,
// ...) are attached to every record.
func NewLogger(w io.Writer, format string, attrs ...slog.Attr) *slog.Logger {
	var inner slog.Handler
	opts := &slog.HandlerOptions{Level: slog.LevelInfo}
	if strings.EqualFold(format, "json") {
		inner = slog.NewJSONHandler(w, opts)
	} else {
		inner = slog.NewTextHandler(w, opts)
	}
	if len(attrs) > 0 {
		inner = inner.WithAttrs(attrs)
	}
	return slog.New(flightHandler{inner: inner})
}

// SetDefaultLogger installs a flight-teed logger as the process default,
// so library layers logging via slog.Default() (the journals' torn-tail
// recovery, connection lifecycle) follow the command's -log-format choice.
// It returns the logger for the caller's own use.
func SetDefaultLogger(w io.Writer, format string, attrs ...slog.Attr) *slog.Logger {
	l := NewLogger(w, format, attrs...)
	slog.SetDefault(l)
	return l
}
