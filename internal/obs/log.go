package obs

import (
	"context"
	"fmt"
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
