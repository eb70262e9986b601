package sites

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"strudel/internal/core"
	"strudel/internal/graph"
	"strudel/internal/mediator"
	"strudel/internal/obs"
	"strudel/internal/struql"
)

var updateExplain = flag.Bool("update", false, "rewrite EXPLAIN golden files")

// explainSites are the §5 example sites whose planner output is pinned,
// at the same sizes the differential build harness uses, so a planner
// change that alters a chosen condition order, access path, or index
// shows up as a reviewable golden diff. Regenerate with
// `go test ./internal/sites -update`.
func explainSites() []struct {
	name string
	spec *core.Spec
} {
	return []struct {
		name string
		spec *core.Spec
	}{
		{"homepage", Homepage(30)},
		{"cnn", CNN(80)},
		{"orgsite", OrgSite(120, 7, 13, 16)},
		{"bilingual", Bilingual(12)},
	}
}

// warehouse loads a spec's sources into the data graph its queries run
// against.
func warehouse(t *testing.T, spec *core.Spec) *graph.Frozen {
	t.Helper()
	med, err := mediator.New(spec.Sources...)
	if err != nil {
		t.Fatal(err)
	}
	data, err := med.Warehouse()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// explainSite renders the planner's EXPLAIN text for every query of
// every version of a spec against the warehoused data graph. Versions
// sharing a query composition (the "no new queries" external views) are
// folded into one section.
func explainSite(t *testing.T, spec *core.Spec) string {
	t.Helper()
	data := warehouse(t, spec)
	var b strings.Builder
	seen := map[string]string{}
	for _, v := range spec.Versions {
		key := strings.Join(v.Queries, "\x00")
		if prev, ok := seen[key]; ok {
			fmt.Fprintf(&b, "== version %s: same queries as %s ==\n\n", v.Name, prev)
			continue
		}
		seen[key] = v.Name
		fmt.Fprintf(&b, "== version %s ==\n\n", v.Name)
		for i, src := range v.Queries {
			q, err := struql.Parse(src)
			if err != nil {
				t.Fatalf("version %s query %d: %v", v.Name, i+1, err)
			}
			text, err := struql.Explain(q, data, nil)
			if err != nil {
				t.Fatalf("version %s query %d: explain: %v", v.Name, i+1, err)
			}
			fmt.Fprintf(&b, "-- query %d --\n%s\n", i+1, text)
		}
	}
	return b.String()
}

// TestExplainGolden pins the planner's chosen plans — condition order,
// access paths (collection scans, label seeks, RPE seeding), and cost
// estimates — for every bundled example query.
func TestExplainGolden(t *testing.T) {
	dir := filepath.Join("testdata", "explain")
	if *updateExplain {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range explainSites() {
		t.Run(s.name, func(t *testing.T) {
			got := explainSite(t, s.spec)
			path := filepath.Join(dir, s.name+".golden")
			if *updateExplain {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("golden rewritten: %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden file missing (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("EXPLAIN output diverged from %s:\n--- got\n%s--- want\n%s", path, got, want)
			}
		})
	}
}

// TestExplainDeterministic guards the golden files' premise: repeated
// explains of the same site agree byte for byte (statistics collection,
// cost tie-breaks, and printing are all deterministic).
func TestExplainDeterministic(t *testing.T) {
	spec := OrgSite(120, 7, 13, 16)
	first := explainSite(t, spec)
	if again := explainSite(t, spec); again != first {
		t.Error("EXPLAIN output differs between runs")
	}
}

// TestEvalSeqFirstQueryReadsBase pins the batch-build read path: the
// first query of a composition is evaluated against the data graph's
// own snapshot — statistics included — not against a copy of it unioned
// with the still-empty accumulator. For every example site, EvalSeq of
// the first query alone must take the same planner decisions as Eval,
// construct the same graph, and allocate no copy of the data graph:
// beyond what Eval and merging its result allocate, it allocates less
// than one object per two data nodes, where a copy allocates at least
// one per node.
func TestEvalSeqFirstQueryReadsBase(t *testing.T) {
	decisions := func(m *obs.EvalMetrics) [5]int64 {
		return [5]int64{m.IndexSeeks.Load(), m.FullScans.Load(), m.RPESeeds.Load(), m.ReorderedConds.Load(), m.StatsLabels.Load()}
	}
	for _, s := range explainSites() {
		t.Run(s.name, func(t *testing.T) {
			data := warehouse(t, s.spec)
			for _, v := range s.spec.Versions {
				q, err := struql.Parse(v.Queries[0])
				if err != nil {
					t.Fatal(err)
				}
				evalM, seqM := &obs.EvalMetrics{}, &obs.EvalMetrics{}
				want, err := struql.Eval(q, data, &struql.Options{Parallelism: 1, Metrics: evalM})
				if err != nil {
					t.Fatal(err)
				}
				got, err := struql.EvalSeq([]*struql.Query{q}, data, &struql.Options{Parallelism: 1, Metrics: seqM})
				if err != nil {
					t.Fatal(err)
				}
				seq := &struql.Options{Parallelism: 1}
				evalAllocs := testing.AllocsPerRun(5, func() { struql.Eval(q, data, seq) })
				seqAllocs := testing.AllocsPerRun(5, func() { struql.EvalSeq([]*struql.Query{q}, data, seq) })
				mergeAllocs := testing.AllocsPerRun(5, func() { graph.New().Merge(want.Graph) })
				if extra := seqAllocs - evalAllocs - mergeAllocs; extra >= float64(data.NumNodes())/2 {
					t.Errorf("version %s: EvalSeq allocates %.0f more than Eval and the merge (%.0f, %.0f): a copy of the %d-node data graph?",
						v.Name, extra, evalAllocs, mergeAllocs, data.NumNodes())
				}
				if got.Dump() != want.Graph.Dump() {
					t.Errorf("version %s: EvalSeq([q]) and Eval(q) construct different graphs", v.Name)
				}
				if d, w := decisions(seqM), decisions(evalM); d != w {
					t.Errorf("version %s: planner decisions (seeks, scans, rpe seeds, reordered, stats labels) = %v under EvalSeq, %v under Eval", v.Name, d, w)
				}
			}
		})
	}
}
