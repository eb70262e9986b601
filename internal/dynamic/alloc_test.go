package dynamic_test

import (
	"runtime"
	"testing"

	"strudel/internal/dynamic"
	"strudel/internal/graph"
	"strudel/internal/mediator"
	"strudel/internal/schema"
	"strudel/internal/sites"
	"strudel/internal/struql"
)

// TestColdPageAllocation pins what a click-time page costs in heap
// bytes: every page of the organization example site's people, orgs and
// projects is computed once, cold, against the snapshot a serving
// generation reads. Bytes per page, go1.24 linux/amd64, one P:
//
//	parent (PR 20)                          165,531
//	slabs, plans, statistics, NS, sort       23,011
//
// The parent paid per edge query a 16 KiB first row slab, an output
// graph, a Skolem environment, fresh statistics and a fresh plan, per
// NS edge row a struql.Parse, and per page a map-based edge and link
// dedup with a joined string key per link. The pin is half the parent.
func TestColdPageAllocation(t *testing.T) {
	spec := sites.OrgSite(120, 8, 16, 60)
	med, err := mediator.New(spec.Sources...)
	if err != nil {
		t.Fatal(err)
	}
	data, err := med.Warehouse()
	if err != nil {
		t.Fatal(err)
	}
	snap := data.Frozen()
	var refs []dynamic.PageRef
	for _, c := range []struct{ coll, fn string }{
		{"People", "PersonPage"}, {"Orgs", "OrgPage"}, {"Projects", "ProjectPage"},
	} {
		for _, oid := range snap.Collection(c.coll) {
			refs = append(refs, dynamic.PageRef{Fn: c.fn, Args: []graph.Value{graph.NewNode(oid)}})
		}
	}
	if len(refs) < 100 {
		t.Fatalf("only %d pages to compute", len(refs))
	}
	ev := dynamic.NewEvaluator(schema.Build(struql.MustParse(sites.OrgSiteQuery)), snap)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	edges := 0
	for _, ref := range refs {
		pd, err := ev.Page(ref)
		if err != nil {
			t.Fatal(err)
		}
		edges += len(pd.Out)
	}
	runtime.ReadMemStats(&after)
	if st := ev.StatsSnapshot(); st.PagesComputed != len(refs) {
		t.Fatalf("computed %d pages, want %d cold ones", st.PagesComputed, len(refs))
	}
	perPage := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(refs))
	t.Logf("%d pages, %d edges: %.0f bytes per cold page", len(refs), edges, perPage)
	const parentPerPage = 165531
	if perPage > parentPerPage/2 {
		t.Errorf("a cold page allocates %.0f bytes, want at most half the parent's %d", perPage, parentPerPage)
	}
}
