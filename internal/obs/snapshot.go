package obs

// HistogramSnapshot is one histogram's state at snapshot time. Counts has
// one entry per bound plus the overflow bucket; entries are per-bucket
// (not cumulative).
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Snapshot is a point-in-time copy of a registry, plain enough to gob
// across the cluster wire and merge master-side.
type Snapshot struct {
	// Origin identifies the registry the snapshot was taken of: a random
	// non-zero id each registry draws once, so a collector can tell two
	// snapshots of one registry from snapshots of two. Merge ignores it.
	Origin   uint64
	Counters map[string]uint64
	Gauges   map[string]float64
	Hists    map[string]HistogramSnapshot
}

// emptySnapshot returns a Snapshot with allocated (mergeable) maps.
func emptySnapshot() Snapshot {
	return Snapshot{
		Counters: make(map[string]uint64),
		Gauges:   make(map[string]float64),
		Hists:    make(map[string]HistogramSnapshot),
	}
}

// Snapshot copies the registry's current state. A nil registry snapshots
// empty.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return emptySnapshot()
	}
	s := emptySnapshot()
	s.Origin = r.origin
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]uint64, len(h.counts)),
			Sum:    h.Sum(),
			Count:  h.Count(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Hists[name] = hs
	}
	return s
}

// Merge folds o into s: counters and histogram buckets add, gauges keep
// o's value (last writer wins — gauges describe the reporter, not a sum).
// Histograms with mismatched buckets keep s's buckets and add only the
// totals, so a merged Sum/Count stays meaningful.
func (s *Snapshot) Merge(o Snapshot) {
	if s.Counters == nil {
		s.Counters = make(map[string]uint64)
	}
	if s.Gauges == nil {
		s.Gauges = make(map[string]float64)
	}
	if s.Hists == nil {
		s.Hists = make(map[string]HistogramSnapshot)
	}
	for name, v := range o.Counters {
		s.Counters[name] += v
	}
	for name, v := range o.Gauges {
		s.Gauges[name] = v
	}
	for name, oh := range o.Hists {
		sh, ok := s.Hists[name]
		if !ok {
			sh = HistogramSnapshot{
				Bounds: append([]float64(nil), oh.Bounds...),
				Counts: append([]uint64(nil), oh.Counts...),
			}
			sh.Sum, sh.Count = oh.Sum, oh.Count
			s.Hists[name] = sh
			continue
		}
		sh.Sum += oh.Sum
		sh.Count += oh.Count
		if len(sh.Counts) == len(oh.Counts) && equalBounds(sh.Bounds, oh.Bounds) {
			for i := range sh.Counts {
				sh.Counts[i] += oh.Counts[i]
			}
		}
		s.Hists[name] = sh
	}
}

// Session opens a reporting session on the registry: it returns the
// snapshot the session counts from (Snapshot then Sub(base)) and the
// func that closes it. Sessions that overlap share the base the first of
// them took, so concurrent reporters sharing a registry report the same
// counts; a session opened after every earlier one closed counts from the
// registry as it is then. A nil registry's base is empty.
func (r *Registry) Session() (base Snapshot, end func()) {
	if r == nil {
		return emptySnapshot(), func() {}
	}
	r.sessMu.Lock()
	defer r.sessMu.Unlock()
	if r.sessions == 0 {
		r.sessBase = r.Snapshot()
	}
	r.sessions++
	return r.sessBase, func() {
		r.sessMu.Lock()
		r.sessions--
		r.sessMu.Unlock()
	}
}

// Sub takes base, an earlier snapshot of the same registry (so a
// histogram keeps its buckets), out of s: counters and histograms less
// base's, a series base lacks whole. Gauges and Origin stay s's.
func (s *Snapshot) Sub(base Snapshot) {
	for name, v := range s.Counters {
		s.Counters[name] = v - base.Counters[name]
	}
	for name, h := range s.Hists {
		b := base.Hists[name]
		h.Sum -= b.Sum
		h.Count -= b.Count
		for i := 0; i < len(b.Counts) && i < len(h.Counts); i++ {
			h.Counts[i] -= b.Counts[i]
		}
		s.Hists[name] = h
	}
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
