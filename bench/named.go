package main

// The issue that defined this benchmark named fourteen end-to-end
// metrics, most of them specific to one workload, each with a bound.
// BENCHMARK.json cannot list them: its one list is reported by every
// workload, never 0, and must repeat within its bound on this machine,
// which tails and a discrete ladder rate do not (README.md has the
// measurements). So every untraced run reports them beside the
// contract's six, under the issue's names, `bench -out` records them,
// and `bench compare` judges them against the issue's bounds, answering
// "unresolved" where the runs' own spread is wider than the bound.
// setup_s is not repeated here: it is in BENCHMARK.json under the same
// name with the same bound.

// issueMetric is one of them. bound is the share of the first set's
// median by which the second may be worse, or, when absolute is set, a
// difference in the metric's own unit.
type issueMetric struct {
	name, unit, better string
	bound              float64
	absolute           bool
}

var issueMetrics = []issueMetric{
	{name: "build_p50_s", unit: "s", better: "lower", bound: 0.10},
	{name: "build_pages_per_s", unit: "1/s", better: "higher", bound: 0.10},
	{name: "build_peak_rss_mb", unit: "MB", better: "lower", bound: 0.10},
	{name: "edit_p50_ms", unit: "ms", better: "lower", bound: 0.10},
	{name: "edit_p90_ms", unit: "ms", better: "lower", bound: 0.20},
	{name: "page_p50_ms", unit: "ms", better: "lower", bound: 0.10},
	{name: "page_p99_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "query_p50_ms", unit: "ms", better: "lower", bound: 0.10},
	{name: "query_p99_ms", unit: "ms", better: "lower", bound: 0.25},
	// One ladder step: from 3× the reference rate down to 2×, or from
	// 1.5× to 1×, is a third. The ladder runs in the traced run only, so
	// a set of runs has one value of this.
	{name: "max_ok_rps", unit: "1/s", better: "higher", bound: 0.34},
	{name: "server_peak_rss_mb", unit: "MB", better: "lower", bound: 0.10},
	{name: "reload_s", unit: "s", better: "lower", bound: 0.15},
	{name: "failed_share", unit: "share", better: "lower", bound: 0.001, absolute: true},
}

// name records v under one of the issue's names.
func (res *outcome) name(name string, v float64) {
	for _, m := range issueMetrics {
		if m.name == name {
			if res.Named == nil {
				res.Named = map[string]metric{}
			}
			res.Named[name] = metric{v, m.unit}
			return
		}
	}
	panic("unlisted issue metric " + name)
}

// finish closes an untraced run: the oracle's verdict, and the share of
// operations that failed it.
func (res *outcome) finish() {
	res.Correct = res.Failed == 0
	res.name("failed_share", float64(res.Failed)/float64(res.Attempted))
}
