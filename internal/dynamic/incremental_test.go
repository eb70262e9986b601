package dynamic_test

import (
	"testing"

	"strudel/internal/core"
	"strudel/internal/dynamic"
	"strudel/internal/graph"
	"strudel/internal/ivm"
	"strudel/internal/mediator"
	"strudel/internal/obs"
	"strudel/internal/struql"
)

// Incremental maintenance of the publications site is done by ivm,
// which decides per block, through BlockDeps and AffectedBy, whether a
// delta can touch it. These tests pin that contract on this package's
// fixture: a maintained site equals a monolithic evaluation, and a
// delta that no block reads does no work.

func siteVersion() *core.Version {
	return &core.Version{
		Name:    "pubs",
		Queries: []string{dynamic.SiteQuery},
		Templates: map[string]string{
			"root":  `<h1><SFMT title></h1><SFMT YearPage UL ORDER=ascend KEY=Year>`,
			"year":  `<h1>Year <SFMT Year></h1><SFMT Paper UL TEXT=title>`,
			"paper": `<b><SFMT title></b>`,
		},
		PerObject:              map[string]string{"RootPage()": "root"},
		ObjectTemplatePrefixes: map[string]string{"YearPage(": "year", "PaperPage(": "paper"},
		Roots:                  []string{"RootPage()"},
	}
}

func maintainedSite(t *testing.T, data *graph.Graph) (*ivm.Engine, *obs.IVMMetrics) {
	t.Helper()
	e, err := ivm.NewEngine(siteVersion(), data, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := &obs.IVMMetrics{}
	e.Obs = m
	return e, m
}

func requireMonolithic(t *testing.T, site, data *graph.Graph, context string) {
	t.Helper()
	full, err := struql.Eval(struql.MustParse(dynamic.SiteQuery), data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := mediator.Diff(full.Graph, site); !d.Empty() {
		t.Errorf("%s: maintained site differs from monolithic eval:\n--- maintained\n%s--- monolithic\n%s",
			context, site.Dump(), full.Graph.Dump())
	}
}

func work(m *obs.IVMMetrics) int64 {
	return m.RowsInserted.Load() + m.RowsRemoved.Load() +
		m.SitesReevaluated.Load() + m.BlocksReevaluated.Load()
}

// requireNoBlockAffected asserts the per-block test ivm skips by: no
// block of the site query reads anything the delta changes.
func requireNoBlockAffected(t *testing.T, delta *mediator.Delta, data *graph.Graph) {
	t.Helper()
	snap := data.Freeze()
	for i, blk := range struql.MustParse(dynamic.SiteQuery).Blocks {
		if dynamic.AffectedBy(dynamic.BlockDeps(blk), delta, snap) {
			t.Errorf("block %d counted as affected by %+v", i, delta)
		}
	}
}

func TestIncrementalStateMatchesMonolithicEval(t *testing.T) {
	data := dynamic.FixtureData()
	e, _ := maintainedSite(t, data)
	requireMonolithic(t, e.Site(), data, "initial build")
}

func TestIncrementalAdditive(t *testing.T) {
	data := dynamic.FixtureData()
	e, m := maintainedSite(t, data)
	// Add a publication in a new year.
	prev := data.Copy()
	data.AddToCollection("Publications", "pub4")
	data.AddEdge("pub4", "title", graph.NewString("New Paper"))
	data.AddEdge("pub4", "year", graph.NewInt(1999))
	// An error would be a bailout: the additive delta must propagate.
	pages, err := e.Apply(data, mediator.Diff(prev, data))
	if err != nil {
		t.Fatalf("additive delta should propagate, not bail out: %v", err)
	}
	if len(pages) == 0 || m.RowsInserted.Load() == 0 {
		t.Errorf("additive delta dirtied %v and inserted %d rows", pages, m.RowsInserted.Load())
	}
	requireMonolithic(t, e.Site(), data, "after additive delta")
	if !e.Site().HasNode("YearPage(1999)") {
		t.Error("new year page missing")
	}
}

func TestIncrementalSkipsUnaffectedBlocks(t *testing.T) {
	data := dynamic.FixtureData()
	e, m := maintainedSite(t, data)
	// A change that touches nothing the query reads.
	data.AddEdge("misc", "noise", graph.NewInt(1))
	delta := &mediator.Delta{AddedEdges: []graph.Edge{{From: "misc", Label: "noise", To: graph.NewInt(1)}}}
	requireNoBlockAffected(t, delta, data)
	pages, err := e.Apply(data, delta)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 0 || work(m) != 0 {
		t.Errorf("irrelevant change dirtied %v and did %d units of work", pages, work(m))
	}
}

func TestIncrementalStateSkipsUnrelatedChanges(t *testing.T) {
	data := dynamic.FixtureData()
	e, _ := maintainedSite(t, data)
	siteBefore := e.Site().Copy()
	pagesBefore := map[string]string{}
	for name, body := range e.Output().Pages {
		pagesBefore[name] = body
	}
	data.AddEdge("noise", "unrelated", graph.NewInt(1))
	delta := &mediator.Delta{AddedEdges: []graph.Edge{{From: "noise", Label: "unrelated", To: graph.NewInt(1)}}}
	requireNoBlockAffected(t, delta, data)
	if _, err := e.Apply(data, delta); err != nil {
		t.Fatal(err)
	}
	if d := mediator.Diff(siteBefore, e.Site()); !d.Empty() {
		t.Errorf("unrelated change moved the site graph: %+v", d)
	}
	if len(e.Output().Pages) != len(pagesBefore) {
		t.Errorf("page count %d, was %d", len(e.Output().Pages), len(pagesBefore))
	}
	for name, body := range pagesBefore {
		if e.Output().Pages[name] != body {
			t.Errorf("page %s changed for an unrelated delta", name)
		}
	}
	requireMonolithic(t, e.Site(), data, "after unrelated delta")
}

func TestIncrementalEmptyDelta(t *testing.T) {
	data := dynamic.FixtureData()
	e, m := maintainedSite(t, data)
	site := e.Site()
	pages, err := e.Apply(data, &mediator.Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 0 || work(m) != 0 || e.Site() != site {
		t.Errorf("empty delta should be a no-op: dirtied %v, %d units of work", pages, work(m))
	}
}

func TestIncrementalStateEmptyDelta(t *testing.T) {
	data := dynamic.FixtureData()
	m := &obs.IVMMetrics{}
	s, err := ivm.NewSite(siteVersion(), data, nil, m)
	if err != nil {
		t.Fatal(err)
	}
	out := s.Output()
	if err := s.Apply(data, &mediator.Delta{}); err != nil {
		t.Fatal(err)
	}
	if s.Output() != out || m.DeltasApplied.Load() != 0 || m.FullRebuilds.Load() != 0 || m.DirtyPages.Load() != 0 {
		t.Errorf("empty delta did work: applied=%d rebuilds=%d dirty=%d",
			m.DeltasApplied.Load(), m.FullRebuilds.Load(), m.DirtyPages.Load())
	}
}
