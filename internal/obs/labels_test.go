package obs

import (
	"context"
	"strings"
	"testing"
)

// SeriesName must canonicalize: labels sorted by key regardless of
// call-site order, values escaped, no labels → bare name.
func TestSeriesNameCanonical(t *testing.T) {
	if got := SeriesName("jobs_total"); got != "jobs_total" {
		t.Fatalf("bare name = %q", got)
	}
	a := SeriesName("jobs_total", L("tenant", "acme"), L("state", "done"))
	b := SeriesName("jobs_total", L("state", "done"), L("tenant", "acme"))
	want := `jobs_total{state="done",tenant="acme"}`
	if a != want || b != want {
		t.Fatalf("label order not canonical: %q vs %q, want %q", a, b, want)
	}
}

// Label values with backslashes, quotes, and newlines must be escaped per
// the Prometheus text format so the rendered series stays parseable.
func TestSeriesNameEscaping(t *testing.T) {
	got := SeriesName("m_total", L("k", "a\\b\"c\nd"))
	want := `m_total{k="a\\b\"c\nd"}`
	if got != want {
		t.Fatalf("escaped series = %q, want %q", got, want)
	}
}

// Labeled series of one family must render under a single # TYPE line, in
// deterministic label order, even when an interleaving family name ("_"
// sorts below "{") would split them under a plain string sort.
func TestWritePrometheusLabeledFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", L("tenant", "b")).Add(2)
	r.Counter("jobs_total", L("tenant", "a")).Add(1)
	r.Counter("jobs_total").Add(5)       // bare series of the same family
	r.Counter("jobs_queue_total").Add(3) // sorts between "jobs_total" and "jobs_total{"
	r.Gauge("live", L("zone", "x")).Set(1.5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if n := strings.Count(out, "# TYPE jobs_total counter"); n != 1 {
		t.Fatalf("jobs_total TYPE lines = %d, want 1:\n%s", n, out)
	}
	// One contiguous family block, bare series first, then sorted labels.
	block := "# TYPE jobs_total counter\n" +
		"jobs_total 5\n" +
		`jobs_total{tenant="a"} 1` + "\n" +
		`jobs_total{tenant="b"} 2` + "\n"
	if !strings.Contains(out, block) {
		t.Fatalf("jobs_total family not contiguous/sorted:\n%s", out)
	}
	if !strings.Contains(out, `live{zone="x"} 1.5`) {
		t.Fatalf("labeled gauge missing:\n%s", out)
	}
}

// Labeled histograms render labels on every sub-series, with le appended
// last on buckets.
func TestWritePrometheusLabeledHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("wait_seconds", []float64{1, 5}, L("tenant", "acme"))
	h.Observe(0.5)
	h.Observe(3)
	h.Observe(30)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE wait_seconds histogram\n",
		`wait_seconds_bucket{tenant="acme",le="1"} 1` + "\n",
		`wait_seconds_bucket{tenant="acme",le="5"} 2` + "\n",
		`wait_seconds_bucket{tenant="acme",le="+Inf"} 3` + "\n",
		`wait_seconds_sum{tenant="acme"} 33.5` + "\n",
		`wait_seconds_count{tenant="acme"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// Labeled series ride Snapshot.Merge like any other name: same-series
// counters add, distinct label sets stay distinct, labeled histograms
// with equal bounds add bucket-wise.
func TestSnapshotMergeLabeledSeries(t *testing.T) {
	mk := func(tenant string, n uint64, obs float64) Snapshot {
		r := NewRegistry()
		r.Counter("jobs_total", L("tenant", tenant)).Add(n)
		r.Histogram("wait_seconds", []float64{1}, L("tenant", tenant)).Observe(obs)
		return r.Snapshot()
	}
	s := mk("a", 2, 0.5)
	s.Merge(mk("a", 3, 0.25)) // same series: adds
	s.Merge(mk("b", 7, 2))    // new label set: unions

	ka := SeriesName("jobs_total", L("tenant", "a"))
	kb := SeriesName("jobs_total", L("tenant", "b"))
	if s.Counters[ka] != 5 || s.Counters[kb] != 7 {
		t.Fatalf("merged counters = %v", s.Counters)
	}
	ha := s.Hists[SeriesName("wait_seconds", L("tenant", "a"))]
	if ha.Count != 2 || ha.Counts[0] != 2 || ha.Sum != 0.75 {
		t.Fatalf("merged labeled histogram = %+v", ha)
	}
	hb := s.Hists[SeriesName("wait_seconds", L("tenant", "b"))]
	if hb.Count != 1 || hb.Counts[1] != 1 {
		t.Fatalf("adopted labeled histogram = %+v", hb)
	}
}

// Interval names with "/" hierarchy separators must surface as legal
// Prometheus metric names.
func TestStageNameSanitized(t *testing.T) {
	r := NewRegistry()
	_, iv := r.Begin(context.Background(), "corr/merged")
	iv.End()
	snap := r.Snapshot()
	if _, ok := snap.Hists["stage_corr_merged_seconds"]; !ok {
		t.Fatalf("stage name not sanitized: %v", snap.Hists)
	}
}
