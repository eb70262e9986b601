package dynamic

import (
	"testing"

	"strudel/internal/graph"
	"strudel/internal/mediator"
	"strudel/internal/obs"
	"strudel/internal/schema"
	"strudel/internal/struql"
)

const siteQuery = `
create RootPage()
link RootPage() -> "title" -> "Home"

where Publications(x)
create PaperPage(x)
link PaperPage(x) -> "self" -> x
{
  where x -> "title" -> t
  link PaperPage(x) -> "title" -> t
}
{
  where x -> "year" -> y
  create YearPage(y)
  link YearPage(y) -> "Year" -> y,
       YearPage(y) -> "Paper" -> PaperPage(x),
       RootPage() -> "YearPage" -> YearPage(y)
}
`

func testData() *graph.Graph {
	g := graph.New()
	add := func(oid graph.OID, title string, year int64) {
		g.AddToCollection("Publications", oid)
		g.AddEdge(oid, "title", graph.NewString(title))
		g.AddEdge(oid, "year", graph.NewInt(year))
	}
	add("pub1", "Query Language", 1997)
	add("pub2", "Catching the Boat", 1998)
	add("pub3", "Another 97 Paper", 1997)
	return g
}

func newEvaluator(t *testing.T, data *graph.Graph) (*Evaluator, *struql.Query) {
	t.Helper()
	q := struql.MustParse(siteQuery)
	return NewEvaluator(schema.Build(q), data), q
}

func TestEntryPoints(t *testing.T) {
	ev, _ := newEvaluator(t, testData())
	roots := ev.EntryPoints()
	if len(roots) != 1 || roots[0].Fn != "RootPage" {
		t.Fatalf("EntryPoints = %v", roots)
	}
}

func TestPageComputesOutEdges(t *testing.T) {
	ev, _ := newEvaluator(t, testData())
	root, err := ev.Page(PageRef{Fn: "RootPage"})
	if err != nil {
		t.Fatal(err)
	}
	// title atom + two year pages (1997, 1998).
	if len(root.Out()) != 3 {
		t.Fatalf("root out = %v", root.Out())
	}
	links := ev.Links(root)
	if len(links) != 2 {
		t.Fatalf("root links = %v", links)
	}
	yp := links[0]
	ypd, err := ev.Page(yp)
	if err != nil {
		t.Fatal(err)
	}
	var papers int
	for _, e := range ypd.Out() {
		if e.Label == "Paper" {
			papers++
		}
	}
	// 1997 has two papers; 1998 has one — whichever sorted first.
	if papers != 2 && papers != 1 {
		t.Errorf("year page papers = %d:\n%v", papers, ypd.Out())
	}
}

func TestDynamicAgreesWithStatic(t *testing.T) {
	data := testData()
	ev, q := newEvaluator(t, data)
	dyn, err := ev.MaterializeAll()
	if err != nil {
		t.Fatal(err)
	}
	r, err := struql.Eval(q, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	static := r.Graph
	// Dynamic materialization covers the pages reachable from the entry
	// points; compare edge sets on that region.
	reach := static.Reachable("RootPage()")
	for oid := range reach {
		if _, isPage := ev.RefFor(oid); !isPage {
			continue // data-graph node referenced by the site
		}
		so := static.Out(oid)
		do := dyn.Out(oid)
		if len(so) != len(do) {
			t.Errorf("%s: static %d edges, dynamic %d\nstatic: %v\ndynamic: %v", oid, len(so), len(do), so, do)
			continue
		}
		for i := range so {
			if so[i] != do[i] {
				t.Errorf("%s: edge %d differs: %v vs %v", oid, i, so[i], do[i])
			}
		}
	}
	// And dynamic must not invent pages the static site lacks.
	for _, oid := range dyn.Nodes() {
		if _, isPage := ev.RefFor(oid); isPage && !static.HasNode(oid) {
			t.Errorf("dynamic invented %s", oid)
		}
	}
}

func TestCacheHits(t *testing.T) {
	ev, _ := newEvaluator(t, testData())
	m := &obs.ServeMetrics{}
	ev.Obs = m
	ref := PageRef{Fn: "RootPage"}
	if _, err := ev.Page(ref); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Page(ref); err != nil {
		t.Fatal(err)
	}
	if computed, hits := m.PagesComputed.Load(), m.PageCacheHits.Load(); computed != 1 || hits != 1 {
		t.Errorf("pages computed %d, cache hits %d; want 1, 1", computed, hits)
	}
}

func TestLookaheadPrecomputes(t *testing.T) {
	ev, _ := newEvaluator(t, testData())
	ev.Lookahead = true
	m := &obs.ServeMetrics{}
	ev.Obs = m
	if _, err := ev.Page(PageRef{Fn: "RootPage"}); err != nil {
		t.Fatal(err)
	}
	// Root plus its two year pages.
	if got := m.PagesComputed.Load(); got != 3 {
		t.Errorf("lookahead computed %d pages, want 3", got)
	}
	// Browsing to a year page is now a cache hit.
	yp := PageRef{Fn: "YearPage", Args: []graph.Value{graph.NewInt(1997)}}
	if _, err := ev.Page(yp); err != nil {
		t.Fatal(err)
	}
	if got := m.PageCacheHits.Load(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
}

// TestInvalidate checks the swap's dependency test: a delta the cached
// page's queries cannot see keeps it, one they read drops it.
func TestInvalidate(t *testing.T) {
	data := testData()
	ev, _ := newEvaluator(t, data)
	if _, err := ev.Page(PageRef{Fn: "RootPage"}); err != nil {
		t.Fatal(err)
	}
	if ev.CacheSize() != 1 {
		t.Fatalf("cache = %d", ev.CacheSize())
	}
	// A change to an unrelated label leaves the cache alone.
	d := &mediator.Delta{AddedEdges: []graph.Edge{{From: "x", Label: "unrelated", To: graph.NewInt(1)}}}
	if kept, dropped := ev.SwapData(data.Freeze(), d); kept != 1 || dropped != 0 {
		t.Errorf("kept %d, dropped %d on unrelated change; want 1, 0", kept, dropped)
	}
	// RootPage depends on the year label (via the nested block's
	// conjunction) and the Publications collection.
	d = &mediator.Delta{AddedMembers: []mediator.Membership{{Coll: "Publications", OID: "pubN"}}}
	if kept, dropped := ev.SwapData(data.Freeze(), d); kept != 0 || dropped != 1 {
		t.Errorf("kept %d, dropped %d on Publications change; want 0, 1", kept, dropped)
	}
	if ev.CacheSize() != 0 {
		t.Error("cache should be empty")
	}
}

func TestPageRefArgsMismatchIgnored(t *testing.T) {
	// A Skolem function created in two shapes: only matching-arity edges
	// apply. (Construct the schema directly through a crafted query.)
	q := struql.MustParse(`
where A(x) create F(x) link F(x) -> "v" -> x
`)
	data := graph.New()
	data.AddToCollection("A", "a1")
	ev := NewEvaluator(schema.Build(q), data)
	pd, err := ev.Page(PageRef{Fn: "F", Args: []graph.Value{graph.NewNode("a1")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pd.Out()) != 1 {
		t.Errorf("out = %v", pd.Out())
	}
	// Zero-arg ref to the same fn: no matching edges, no error.
	pd2, err := ev.Page(PageRef{Fn: "F"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pd2.Out()) != 0 {
		t.Errorf("mismatched arity should yield no edges: %v", pd2.Out())
	}
}
