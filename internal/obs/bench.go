package obs

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"fcma/internal/chaos"
)

// StageSummary is one pipeline stage's aggregate timing in a bench
// summary.
type StageSummary struct {
	Seconds float64 `json:"seconds"`
	Count   uint64  `json:"count"`
}

// BenchSummary is the end-of-run structured record the perf trajectory
// accumulates, written as BENCH_<name>.json. Stages is derived from the
// registry's stage_*_seconds histograms; Counters and Gauges carry the
// raw instruments for anything a later analysis wants.
type BenchSummary struct {
	Name           string                  `json:"name"`
	Timestamp      time.Time               `json:"timestamp"`
	ElapsedSeconds float64                 `json:"elapsed_seconds"`
	Throughput     float64                 `json:"throughput_per_sec,omitempty"`
	ThroughputUnit string                  `json:"throughput_unit,omitempty"`
	Params         map[string]string       `json:"params,omitempty"`
	Stages         map[string]StageSummary `json:"stages,omitempty"`
	Counters       map[string]uint64       `json:"counters,omitempty"`
	Gauges         map[string]float64      `json:"gauges,omitempty"`
}

// NewBenchSummary builds a summary from a snapshot: stage_*_seconds
// histograms become Stages entries, everything else is carried verbatim.
func NewBenchSummary(name string, elapsed time.Duration, snap Snapshot) BenchSummary {
	s := BenchSummary{
		Name:           name,
		Timestamp:      time.Now().UTC(),
		ElapsedSeconds: elapsed.Seconds(),
		Stages:         make(map[string]StageSummary),
		Counters:       snap.Counters,
		Gauges:         snap.Gauges,
	}
	for hname, h := range snap.Hists {
		stage, ok := strings.CutPrefix(hname, "stage_")
		if !ok {
			continue
		}
		stage, ok = strings.CutSuffix(stage, "_seconds")
		if !ok {
			continue
		}
		s.Stages[stage] = StageSummary{Seconds: h.Sum, Count: h.Count}
	}
	return s
}

// benchSlug maps a run name (which may come straight out of an untrusted
// dataset file) to a filename-safe slug: anything outside [A-Za-z0-9_-]
// becomes '-', so the result cannot traverse directories.
//
//lint:sanitizes taintflow replaces every non-alphanumeric rune, so no path separators survive
func benchSlug(name string) string {
	slug := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '-'
		}
	}, name)
	if slug == "" {
		slug = "run"
	}
	return slug
}

// WriteFile writes the summary to dir as BENCH_<name>.json (the name is
// sanitized to a filename-safe slug) and returns the path written.
func (s BenchSummary) WriteFile(dir string) (string, error) {
	path := filepath.Join(dir, "BENCH_"+benchSlug(s.Name)+".json")
	if err := s.WritePath(path); err != nil {
		return "", err
	}
	return path, nil
}

// WritePath writes the summary as indented JSON to the given path. The
// write is atomic and durable (temp + fsync + rename): a bench summary
// torn by a crash would poison the perf trajectory the reports are built
// from.
func (s BenchSummary) WritePath(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encoding bench summary: %w", err)
	}
	b = append(b, '\n')
	if err := chaos.WriteFileAtomic(chaos.OS(), path, b, 0o644); err != nil {
		return fmt.Errorf("obs: writing bench summary: %w", err)
	}
	return nil
}
