package dynamic_test

import (
	"runtime"
	"testing"

	"strudel/internal/dynamic"
	"strudel/internal/graph"
	"strudel/internal/mediator"
	"strudel/internal/obs"
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
//	targets grouped by label                 24,040
//
// The parent paid per edge query a 16 KiB first row slab, an output
// graph, a Skolem environment, fresh statistics and a fresh plan, per
// NS edge row a struql.Parse, and per page a map-based edge and link
// dedup with a joined string key per link. The pin is half the parent.
// The last row sorts the page's edges in a transient list and copies
// the targets, grouped by label, into exact-size slices: about 1 KB
// more allocated than the row above, and less retained
// (TestColdPageRetained).
func TestColdPageAllocation(t *testing.T) {
	snap, s, refs := orgSitePages(t)
	ev := dynamic.NewEvaluator(s, snap)
	m := &obs.ServeMetrics{}
	ev.Obs = m

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	edges := 0
	for _, ref := range refs {
		pd, err := ev.Page(ref)
		if err != nil {
			t.Fatal(err)
		}
		edges += len(pd.Out())
	}
	runtime.ReadMemStats(&after)
	if got := m.PagesComputed.Load(); got != int64(len(refs)) {
		t.Fatalf("computed %d pages, want %d cold ones", got, len(refs))
	}
	perPage := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(refs))
	t.Logf("%d pages, %d edges: %.0f bytes per cold page", len(refs), edges, perPage)
	const parentPerPage = 165531
	if perPage > parentPerPage/2 {
		t.Errorf("a cold page allocates %.0f bytes, want at most half the parent's %d", perPage, parentPerPage)
	}
}

// TestColdPageRetained pins what the page cache holds per click-time
// page: every person, organization and project page of the
// organization example site is computed, then a GC runs, and the live
// heap the evaluator keeps is divided by the cached pages. Bytes per
// cached page, go1.24 linux/amd64:
//
//	parent (edges and links stored per page)      2,285
//	targets grouped by label, stored once         1,793
//
// The parent kept each edge as a 96-byte graph.Edge whose source is
// always the page, plus a second copy of every link target with its own
// argument slice. It also pins that reading a cached page's label, as a
// template does, allocates nothing: the answer is a view of the cache.
func TestColdPageRetained(t *testing.T) {
	snap, s, refs := orgSitePages(t)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ev := dynamic.NewEvaluator(s, snap)
	for _, ref := range refs {
		if _, err := ev.Page(ref); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	pages := ev.CacheSize()
	perPage := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(pages)
	t.Logf("%d cached pages: %.0f bytes retained per page", pages, perPage)
	const parentPerPage = 2285
	if perPage > parentPerPage*0.85 {
		t.Errorf("a cached page retains %.0f bytes, want at most 85%% of the parent's %d", perPage, parentPerPage)
	}

	site := dynamic.SiteView(ev)
	oid := ev.OIDFor(refs[0])
	if len(site.OutLabel(oid, "name")) == 0 {
		t.Fatalf("%s has no name", oid)
	}
	if n := testing.AllocsPerRun(100, func() { site.OutLabel(oid, "name") }); n != 0 {
		t.Errorf("reading a cached page's label allocates %.0f times, want 0", n)
	}
	runtime.KeepAlive(ev)
}

// orgSitePages returns the organization example site's snapshot and
// schema, and a page ref for every person, organization and project.
func orgSitePages(t *testing.T) (*graph.Frozen, *schema.Schema, []dynamic.PageRef) {
	t.Helper()
	spec := sites.OrgSite(120, 8, 16, 60)
	med, err := mediator.New(spec.Sources...)
	if err != nil {
		t.Fatal(err)
	}
	data, err := med.Warehouse()
	if err != nil {
		t.Fatal(err)
	}
	var refs []dynamic.PageRef
	for _, c := range []struct{ coll, fn string }{
		{"People", "PersonPage"}, {"Orgs", "OrgPage"}, {"Projects", "ProjectPage"},
	} {
		for _, oid := range data.Collection(c.coll) {
			refs = append(refs, dynamic.PageRef{Fn: c.fn, Args: []graph.Value{graph.NewNode(oid)}})
		}
	}
	if len(refs) < 100 {
		t.Fatalf("only %d pages to compute", len(refs))
	}
	return data, schema.Build(struql.MustParse(sites.OrgSiteQuery)), refs
}
