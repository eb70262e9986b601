package struql

import (
	"strudel/internal/graph"
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

// Stats holds the selectivity statistics the cost-based planner
// consults: graph totals, and per-label selectivities read from the
// snapshot's label index when asked. A Stats is safe for concurrent
// use and can be shared across evaluations of the same source through
// Options.Stats — the "warm statistics" path of experiment E14. It also memoises the plans made from it for its whole
// lifetime, so sharing a Stats shares planning too; the memo grows with
// the distinct condition lists evaluated under it, which suits a fixed
// query set (a site schema's edge queries) and not per-request parsed
// queries.
type Stats struct {
	f *graph.Frozen

	// NumNodes and NumEdges are the graph totals, collected eagerly.
	NumNodes int
	NumEdges int
	// AvgDeg is the mean out-degree plus one, the uniform fallback
	// estimate for conditions without a usable label statistic.
	AvgDeg float64

	// metrics counts per-label reads (nil disables).
	metrics *obs.EvalMetrics
	// plans memoises the condition orders planned with these statistics.
	plans *planCache
}

// CollectStats prepares statistics over the snapshot an evaluation of
// src reads (see Snapshot): for a source without a snapshot of its own,
// that means freezing a copy. A source past the snapshot's id capacity,
// which no evaluation can read, gets the statistics of an empty graph.
func CollectStats(src Source) *Stats {
	f, err := Snapshot(src)
	if err != nil {
		f = graph.New().Freeze()
	}
	return newStats(f)
}

// newStats reads the graph totals of f.
func newStats(f *graph.Frozen) *Stats {
	return &Stats{
		f:        f,
		NumNodes: f.NumNodes(),
		NumEdges: f.NumEdges(),
		AvgDeg:   avgDegree(f),
		plans:    newPlanCache(),
	}
}

// Label returns the statistics for one edge label, precomputed in the
// snapshot's label index.
func (s *Stats) Label(label string) LabelStat {
	s.metrics.RecordStatsLabel()
	count, sources, targets := s.f.LabelStats(label)
	return LabelStat{Count: count, Sources: sources, Targets: targets}
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
