package obs

import (
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fcma/internal/obs/trace"
)

// Wrap must record RED metrics per route × method × status class, assign
// and echo request ids, and open a per-request trace whose id reaches
// the response header and whose context reaches the handler.
func TestHTTPMiddlewareRED(t *testing.T) {
	reg := NewRegistry()
	tr := trace.New(0)
	var logBuf strings.Builder
	m := HTTPMiddleware{Reg: reg, Log: slog.New(slog.NewTextHandler(&logBuf, nil)), Tracer: tr}

	h := m.Wrap("/api/v1/jobs", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, sp := trace.StartSpan(r.Context(), "handler/work")
		sp.End()
		w.WriteHeader(http.StatusAccepted)
	}))

	srv := httptest.NewServer(h)
	defer srv.Close()

	req, _ := http.NewRequest("POST", srv.URL, nil)
	req.Header.Set(HeaderRequestID, "client-id-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rid := resp.Header.Get(HeaderRequestID); rid != "client-id-1" {
		t.Fatalf("request id header = %q, want client-id-1", rid)
	}
	traceID := resp.Header.Get(HeaderTraceID)
	if len(traceID) != 16 {
		t.Fatalf("X-Trace-ID = %q, want 16-hex id", traceID)
	}

	// A second request without a client id gets a generated one and a
	// distinct trace.
	resp2, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if rid := resp2.Header.Get(HeaderRequestID); len(rid) != 16 {
		t.Fatalf("generated request id = %q, want 16-hex", rid)
	}
	if tid2 := resp2.Header.Get(HeaderTraceID); tid2 == traceID {
		t.Fatalf("two requests share trace id %q", tid2)
	}

	snap := reg.Snapshot()
	if got := snap.Counters[SeriesName("http_requests_total",
		L("route", "/api/v1/jobs"), L("method", "POST"), L("code", "2xx"))]; got != 1 {
		t.Fatalf("POST 2xx counter = %d, want 1:\n%v", got, snap.Counters)
	}
	post := snap.Hists[SeriesName("http_request_seconds",
		L("method", "POST"), L("route", "/api/v1/jobs"))]
	if post.Count != 1 {
		t.Fatalf("latency histogram count = %d, want 1", post.Count)
	}
	if v := snap.Gauges["http_inflight_requests"]; v != 0 {
		t.Fatalf("inflight gauge = %g after requests finished", v)
	}

	// The handler's span joined the request's fresh trace under its root.
	spans := tr.Drain()
	var root, work *trace.Span
	for i := range spans {
		switch spans[i].Name {
		case "http /api/v1/jobs":
			if spans[i].Attr("request_id") == "client-id-1" {
				root = &spans[i]
			}
		case "handler/work":
			if work == nil || spans[i].Trace.String() == traceID {
				work = &spans[i]
			}
		}
	}
	if root == nil || work == nil {
		t.Fatalf("missing spans in %v", spans)
	}
	if work.Trace != root.Trace || work.Parent != root.ID {
		t.Fatalf("handler span %+v not under request root %+v", work, root)
	}
	if root.Trace.String() != traceID {
		t.Fatalf("root trace %s != X-Trace-ID %s", root.Trace, traceID)
	}
	// A traced request is timed once: its latency is its root span's.
	if got := time.Duration(root.DurNS).Seconds(); got != post.Sum {
		t.Fatalf("POST latency observed %gs, its request span lasted %gs", post.Sum, got)
	}

	if !strings.Contains(logBuf.String(), "request_id=client-id-1") ||
		!strings.Contains(logBuf.String(), "status=202") {
		t.Fatalf("access log missing fields:\n%s", logBuf.String())
	}
}

// Malformed client request ids (log-injection shaped) are replaced, not
// echoed.
func TestHTTPMiddlewareRejectsBadRequestID(t *testing.T) {
	m := HTTPMiddleware{}
	h := m.Wrap("/x", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	req, _ := http.NewRequest("GET", srv.URL, nil)
	req.Header.Set(HeaderRequestID, `evil="quote `+strings.Repeat("x", 80))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rid := resp.Header.Get(HeaderRequestID); len(rid) != 16 {
		t.Fatalf("bad client id echoed or not replaced: %q", rid)
	}
}

func TestStatusClass(t *testing.T) {
	for code, want := range map[int]string{200: "2xx", 202: "2xx", 404: "4xx", 503: "5xx", 42: "other"} {
		if got := statusClass(code); got != want {
			t.Fatalf("statusClass(%d) = %q, want %q", code, got, want)
		}
	}
}
