package obs

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4), instruments sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return writeProm(w, r.Snapshot())
}

// WritePrometheus renders the snapshot in the Prometheus text format —
// the master uses it to expose the merged cluster-wide view.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	return writeProm(w, s)
}

// writeProm renders a snapshot, grouping labeled series (canonical keys
// `family{k="v"}`, see SeriesName) under one # TYPE line per family.
// Series are ordered by (family, label body) via sortSeriesKeys, so each
// family is one contiguous block — deterministic output for tests and
// clean diffing of scrapes.
func writeProm(w io.Writer, s Snapshot) error {
	typed := "" // family the last # TYPE line announced
	announce := func(family, kind string) error {
		if family == typed {
			return nil
		}
		typed = family
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", family, kind)
		return err
	}
	cnames := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		cnames = append(cnames, name)
	}
	sortSeriesKeys(cnames)
	for _, name := range cnames {
		family, _, _ := splitSeries(name)
		if err := announce(family, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	gnames := make([]string, 0, len(s.Gauges))
	for name := range s.Gauges {
		gnames = append(gnames, name)
	}
	sortSeriesKeys(gnames)
	for _, name := range gnames {
		family, _, _ := splitSeries(name)
		if err := announce(family, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %g\n", name, s.Gauges[name]); err != nil {
			return err
		}
	}
	hnames := make([]string, 0, len(s.Hists))
	for name := range s.Hists {
		hnames = append(hnames, name)
	}
	sortSeriesKeys(hnames)
	for _, name := range hnames {
		h := s.Hists[name]
		family, labels, labeled := splitSeries(name)
		if err := announce(family, "histogram"); err != nil {
			return err
		}
		// Histogram sub-series put the family's labels first and le last:
		// fam_bucket{tenant="a",le="0.5"}. An unlabeled family keeps the
		// bare fam_sum / fam_count forms.
		bucket := func(le string) string {
			if labeled {
				return fmt.Sprintf("%s_bucket{%s,le=%q}", family, labels, le)
			}
			return fmt.Sprintf("%s_bucket{le=%q}", family, le)
		}
		sub := func(suffix string) string {
			if labeled {
				return family + suffix + "{" + labels + "}"
			}
			return family + suffix
		}
		var cum uint64
		for i, bound := range h.Bounds {
			if i < len(h.Counts) {
				cum += h.Counts[i]
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", bucket(formatBound(bound)), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %d\n%s %g\n%s %d\n",
			bucket("+Inf"), h.Count, sub("_sum"), h.Sum, sub("_count"), h.Count); err != nil {
			return err
		}
	}
	return nil
}

func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// Server is a running metrics/debug HTTP endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the listener down immediately, abandoning in-flight
// requests. Prefer Shutdown for a clean exit.
func (s *Server) Close() error { return s.srv.Close() }

// Shutdown stops accepting new connections and waits for in-flight
// requests to finish, up to ctx's deadline — the drain-friendly
// counterpart to Close, so a scrape in progress when SIGTERM lands still
// gets its response.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.srv.Shutdown(ctx)
}

// NewMux builds the standard observability mux: /metrics (Prometheus
// text), /healthz (liveness + build identity), /readyz (readiness; a nil
// ready is always ready), and the net/http/pprof handlers under
// /debug/pprof/. Exported so daemons like fcma-serve can mount these
// endpoints on their own API server instead of running a second one.
func NewMux(snap func() Snapshot, ready *Readiness) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = writeBuildInfoProm(w)
		_ = writeRuntimeProm(w)
		_ = snap().WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", handleHealthz)
	mux.HandleFunc("/readyz", ready.handler)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeFunc starts an HTTP server on addr exposing snap's registry view at
// /metrics (Prometheus text, evaluated per request) and the standard
// net/http/pprof handlers under /debug/pprof/ — the -listen endpoint of
// fcma-run and fcma-cluster. Pass a registry's Snapshot method (a nil
// registry's serves an empty page), or, as the cluster master does, a
// function merging its own registry with the workers' shipped snapshots.
// The built-in /readyz is always ready; daemons with a drain protocol use
// NewMux with their own Readiness instead.
func ServeFunc(addr string, snap func() Snapshot) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: NewMux(snap, nil), ReadHeaderTimeout: 5 * time.Second}
	spawn("obs/metrics-server", func() { _ = srv.Serve(ln) })
	return &Server{ln: ln, srv: srv}, nil
}
