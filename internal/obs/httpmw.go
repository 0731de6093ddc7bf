package obs

import (
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"fcma/internal/obs/trace"
)

// HTTP request instrumentation (the RED view: rate, errors, duration).
// HTTPMiddleware.Wrap is applied per route at registration time — the mux
// knows the route pattern there, so no path parsing and no dependence on
// the request carrying its matched pattern.

// HeaderRequestID is the request-id header accepted from clients and
// echoed on every response.
const HeaderRequestID = "X-Request-ID"

// HeaderTraceID carries the per-request trace id on responses, so a
// client can find its request's timeline in a -trace-out dump.
const HeaderTraceID = "X-Trace-ID"

// HTTPMiddleware instruments handlers with RED metrics, request ids,
// per-request traces, and structured access logs. Zero-value fields
// degrade gracefully: nil Reg records nothing, nil Log skips access
// logs, nil Tracer skips spans.
type HTTPMiddleware struct {
	Reg    *Registry
	Log    *slog.Logger
	Tracer *trace.Tracer
}

// statusRecorder captures the response status and body size for metrics
// and access logs.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// Flush passes through so streaming handlers keep working under the
// recorder.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Wrap instruments next under the given route label. Per request it
// records:
//
//   - http_requests_total{route,method,code} — code is the status class
//     ("2xx"), keeping cardinality at routes × methods × 5
//   - http_request_seconds{method,route} latency histogram
//   - http_inflight_requests gauge
//
// assigns a request id (accepting a well-formed client X-Request-ID,
// generating one otherwise) echoed on the response; opens a per-request trace root (fresh trace id) under which handler
// spans nest via trace.StartSpan, echoing the id as X-Trace-ID; and
// emits one access-log record through Log (and thus the flight
// recorder).
func (m HTTPMiddleware) Wrap(route string, next http.Handler) http.Handler {
	inflight := m.Reg.Gauge("http_inflight_requests")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := cleanRequestID(r.Header.Get(HeaderRequestID))
		if rid == "" {
			rid = fmt.Sprintf("%016x", rand.Uint64())
		}
		w.Header().Set(HeaderRequestID, rid)
		ctx := r.Context()

		// Read the clock once at each end: the span's, when traced.
		var span *trace.Active
		var start time.Time
		if m.Tracer == nil {
			start = time.Now()
		} else {
			span = m.Tracer.StartTrace("http " + route)
			span.SetAttr("request_id", rid)
			span.SetAttr("method", r.Method)
			span.SetAttr("path", r.URL.Path)
			w.Header().Set(HeaderTraceID, span.Context().Trace.String())
			ctx = trace.WithRemoteParent(ctx, m.Tracer, span.Context())
		}

		inflight.Add(1)
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r.WithContext(ctx))
		inflight.Add(-1)
		if rec.status == 0 { // handler never wrote: net/http sends 200
			rec.status = http.StatusOK
		}
		span.SetInt("status", rec.status)
		elapsed := span.End()
		if span == nil {
			elapsed = time.Since(start)
		}
		m.Reg.Counter("http_requests_total",
			L("route", route), L("method", r.Method), L("code", statusClass(rec.status))).Inc()
		m.Reg.Histogram("http_request_seconds", nil,
			L("route", route), L("method", r.Method)).Observe(elapsed.Seconds())
		if m.Log != nil {
			m.Log.Info("http request",
				"method", r.Method, "route", route, "path", r.URL.Path,
				"status", rec.status, "bytes", rec.bytes,
				"dur_ms", elapsed.Milliseconds(), "request_id", rid,
				"remote", r.RemoteAddr)
		}
	})
}

// statusClass buckets an HTTP status into its class ("2xx") to keep
// counter cardinality bounded.
func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return strconv.Itoa(code/100) + "xx"
}

// cleanRequestID accepts a client-supplied request id only when it is
// short and shell/log-safe; anything else ("" included) means "generate
// one".
func cleanRequestID(id string) string {
	if len(id) == 0 || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return ""
		}
	}
	return id
}
