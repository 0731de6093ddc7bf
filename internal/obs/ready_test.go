package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestReadinessStates walks the flag through its lifecycle: zero value is
// "starting", Set(true) is ready, Set(false, reason) reports the reason.
func TestReadinessStates(t *testing.T) {
	var r Readiness
	if ok, reason := r.Ready(); ok || reason != "starting" {
		t.Fatalf("zero Readiness = (%v, %q), want (false, starting)", ok, reason)
	}
	r.Set(true, "")
	if ok, _ := r.Ready(); !ok {
		t.Fatal("Set(true) did not make the flag ready")
	}
	r.Set(false, "draining")
	if ok, reason := r.Ready(); ok || reason != "draining" {
		t.Fatalf("draining Readiness = (%v, %q), want (false, draining)", ok, reason)
	}
}

// TestReadinessNil proves a nil *Readiness is always ready and never
// panics — the contract NewMux relies on for components with no drain.
func TestReadinessNil(t *testing.T) {
	var r *Readiness
	r.Set(false, "ignored")
	if ok, _ := r.Ready(); !ok {
		t.Fatal("nil Readiness must always be ready")
	}
}

// TestReadyzEndpoint proves /readyz answers 200 when ready and 503 with
// the reason when not, while /healthz stays 200 throughout — the
// distinction a load balancer draining a pod depends on.
func TestReadyzEndpoint(t *testing.T) {
	var ready Readiness
	mux := NewMux(func() Snapshot { return Snapshot{} }, &ready)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	get := func(path string) (int, map[string]string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, doc
	}

	if code, doc := get("/readyz"); code != http.StatusServiceUnavailable || doc["reason"] != "starting" {
		t.Fatalf("/readyz while starting = %d %v, want 503 starting", code, doc)
	}
	ready.Set(true, "")
	if code, doc := get("/readyz"); code != http.StatusOK || doc["status"] != "ready" {
		t.Fatalf("/readyz when ready = %d %v, want 200 ready", code, doc)
	}
	ready.Set(false, "draining")
	if code, doc := get("/readyz"); code != http.StatusServiceUnavailable || doc["reason"] != "draining" {
		t.Fatalf("/readyz while draining = %d %v, want 503 draining", code, doc)
	}
	if code, doc := get("/healthz"); code != http.StatusOK || doc["status"] != "ok" {
		t.Fatalf("/healthz while draining = %d %v; liveness must not follow readiness", code, doc)
	}
}

// TestServerShutdownWaitsForInflight proves Shutdown lets a request that
// arrived before the shutdown finish, where Close would sever it.
func TestServerShutdownWaitsForInflight(t *testing.T) {
	reg := NewRegistry()
	srv, err := ServeFunc("127.0.0.1:0", reg.Snapshot)
	if err != nil {
		t.Fatal(err)
	}

	// An in-flight scrape: start it, then shut down while it runs.
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Fatal("server still accepting connections after Shutdown")
	}
}
