package struql

import (
	"sync"

	"strudel/internal/obs"
)

// LabelStat summarizes one edge label's selectivity: how many edges
// carry it, how many distinct nodes it leaves from, and how many
// distinct values it points at. The planner derives fan-out (Count /
// Sources), fan-in (Count / Targets), and seed sizes from it.
type LabelStat struct {
	// Count is the number of edges carrying the label.
	Count int
	// Sources is the number of distinct source nodes with at least one
	// edge carrying the label.
	Sources int
	// Targets is the number of distinct values the label points at.
	Targets int
}

// LabelStatser is the optional fast path for per-label statistics: a
// source that already indexes its attribute extents (the repository)
// can answer without a scan. Sources that do not implement it are
// scanned once per label through EdgesLabeled, and the result cached.
type LabelStatser interface {
	// LabelStats returns the edge count, distinct source count, and
	// distinct target count of one label.
	LabelStats(label string) (count, sources, targets int)
}

// Stats holds the selectivity statistics the cost-based planner
// consults: graph totals eagerly, per-label selectivities lazily (only
// labels a query actually mentions are ever computed). A Stats is safe
// for concurrent use and can be shared across evaluations of the same
// source through Options.Stats — the "warm statistics" path of
// experiment E14. It also memoises the plans made from it for its whole
// lifetime, so sharing a Stats shares planning too; the memo grows with
// the distinct condition lists evaluated under it, which suits a fixed
// query set (a site schema's edge queries) and not per-request parsed
// queries.
type Stats struct {
	src Source

	// NumNodes and NumEdges are the graph totals, collected eagerly.
	NumNodes int
	NumEdges int
	// AvgDeg is the mean out-degree plus one, the uniform fallback
	// estimate for conditions without a usable label statistic.
	AvgDeg float64

	mu     sync.Mutex
	labels map[string]LabelStat
	// metrics counts cold per-label computations (nil disables).
	metrics *obs.EvalMetrics
	// plans memoises the condition orders planned with these statistics.
	plans *planCache
}

// CollectStats prepares statistics over src. Graph totals are read
// immediately (O(1) on every Source implementation); per-label
// statistics are computed on first use.
func CollectStats(src Source) *Stats {
	return &Stats{
		src:      src,
		NumNodes: src.NumNodes(),
		NumEdges: src.NumEdges(),
		AvgDeg:   avgDegree(src),
		labels:   make(map[string]LabelStat),
		plans:    newPlanCache(),
	}
}

// Label returns the statistics for one edge label, computing and
// caching them on first request. Sources implementing LabelStatser
// answer from their indexes; others are scanned via EdgesLabeled.
func (s *Stats) Label(label string) LabelStat {
	s.mu.Lock()
	if st, ok := s.labels[label]; ok {
		s.mu.Unlock()
		return st
	}
	s.mu.Unlock()
	var st LabelStat
	if ls, ok := s.src.(LabelStatser); ok {
		st.Count, st.Sources, st.Targets = ls.LabelStats(label)
	} else {
		st = scanLabelStat(s.src, label)
	}
	s.metrics.RecordStatsLabel()
	s.mu.Lock()
	s.labels[label] = st
	s.mu.Unlock()
	return st
}

// scanLabelStat computes one label's statistics by scanning its edges.
func scanLabelStat(src Source, label string) LabelStat {
	edges := src.EdgesLabeled(label)
	srcs := map[string]bool{}
	tgts := map[string]bool{}
	for _, e := range edges {
		srcs[string(e.From)] = true
		tgts[e.To.Key()] = true
	}
	return LabelStat{Count: len(edges), Sources: len(srcs), Targets: len(tgts)}
}

// FanOut estimates the expected number of result rows per already-bound
// source node: the label's edge count spread over all nodes. Selective
// labels (few edges in a big graph) estimate near zero — exactly the
// conditions worth evaluating first.
func (s *Stats) FanOut(st LabelStat) float64 {
	if s.NumNodes == 0 {
		return 1
	}
	return float64(st.Count) / float64(s.NumNodes)
}

// FanIn estimates the expected rows per already-bound target value:
// the label's mean in-degree, damped the same way as FanOut.
func (s *Stats) FanIn(st LabelStat) float64 {
	if s.NumNodes == 0 {
		return 1
	}
	return float64(st.Count) / float64(s.NumNodes)
}
