package ivm

import (
	"fmt"
	"sort"
	"testing"

	"strudel/internal/core"
	"strudel/internal/graph"
	"strudel/internal/mediator"
	"strudel/internal/obs"
	"strudel/internal/sites"
	"strudel/internal/struql"
)

// homepageEngine builds the internal homepage version over nPubs
// publications, on an indexed source as watch mode uses.
func homepageEngine(t testing.TB, nPubs int) (*Engine, *core.Version, *graph.Graph) {
	t.Helper()
	spec := sites.Homepage(nPubs)
	data, err := sites.HomepageData(nPubs)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(&spec.Versions[0], data.Freeze(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return e, &spec.Versions[0], data
}

// TestRemovalRechecksOnlyItsRows pins the precision of delete-and-
// rederive: removing one publication ground-re-checks exactly the rows
// that bind it, not every row sharing a label with one of its edges
// (the arc-variable site holds a "title" row for every publication).
func TestRemovalRechecksOnlyItsRows(t *testing.T) {
	e, _, data := homepageEngine(t, 200)
	m := &obs.IVMMetrics{}
	e.Obs = m
	pub := data.Collection("Publications")[7]
	want := 0
	for _, bs := range e.blocks {
		for _, st := range bs.sites {
			for _, row := range st.rows {
				for _, v := range row {
					if v.IsNode() && v.OID() == pub {
						want++
						break
					}
				}
			}
		}
	}
	if want == 0 {
		t.Fatalf("no maintained row binds %s", pub)
	}
	cur := data.Copy()
	for _, edge := range cur.Out(pub) {
		cur.RemoveEdge(edge.From, edge.Label, edge.To)
	}
	cur.RemoveFromCollection("Publications", pub)
	cur.RemoveNode(pub)
	if _, err := e.Apply(cur.Freeze(), mediator.Diff(data, cur)); err != nil {
		t.Fatal(err)
	}
	if got := m.RowsRechecked.Load(); got != int64(want) {
		t.Errorf("rows re-checked = %d, want the %d rows binding %s", got, want, pub)
	}
	if got := m.RowsRemoved.Load(); got != int64(want) {
		t.Errorf("rows removed = %d, want %d", got, want)
	}
	requireSameGraph(t, oracleGraph(t, e, cur), e.Site(), "publication removed")
}

// TestApplyAllocsIndependentOfSiteSize pins that an edit costs what it
// changes: changing one publication's venue allocates about as much on
// a site of 800 publications as on one of 200. The edit is a venue, not
// a title, on purpose: a title is also read by the page that embeds
// every abstract, and re-rendering that page grows with the site by
// the site's own design. A retitle therefore does not meet this bound:
// it allocates 7,260 at 200 publications and 27,147 at 800 (3.7×).
// Without page regeneration the same retitle allocates 104 at both
// sizes, so the growth is that one page's re-render.
func TestApplyAllocsIndependentOfSiteSize(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two homepage sites")
	}
	allocs := map[int]float64{}
	for _, n := range []int{200, 800} {
		e, _, data := homepageEngine(t, n)
		pub := data.Collection("Publications")[7]
		old := data.First(pub, "journal")
		if old.IsNull() {
			t.Fatalf("%s has no journal", pub)
		}
		edited := data.Copy()
		edited.RemoveEdge(pub, "journal", old)
		edited.AddEdge(pub, "journal", graph.NewString("Renamed Journal"))
		srcs := []struql.Source{edited.Freeze(), data.Freeze()}
		deltas := []*mediator.Delta{mediator.Diff(data, edited), mediator.Diff(edited, data)}
		// Alternate the edit and its inverse, so every run does the work.
		i := 0
		apply := func() {
			if _, err := e.Apply(srcs[i%2], deltas[i%2]); err != nil {
				t.Fatal(err)
			}
			i++
		}
		// Out of the measurement: the first read of each source builds
		// its snapshot, and the first apply builds the read index.
		apply()
		apply()
		allocs[n] = testing.AllocsPerRun(10, apply)
	}
	if ratio := allocs[800] / allocs[200]; ratio > 1.5 {
		t.Errorf("allocs per venue edit: %.0f at 200 publications, %.0f at 800 (%.2f×, want ≤ 1.5×)",
			allocs[200], allocs[800], ratio)
	}
}

// TestAddDirtiesOnlyReaders pins read-set dirtying: every page embeds a
// nav bar linking the index page, so every page names the index; adding
// a member changes only what the index lists, and so dirties exactly
// the index page and the new member's page.
func TestAddDirtiesOnlyReaders(t *testing.T) {
	v := &core.Version{
		Name: "nav",
		Queries: []string{`create Index(), Nav()
link Index() -> "kind" -> "Items",
     Index() -> "nav" -> Nav(),
     Nav() -> "IndexLink" -> Index()

where Items(x), x -> "title" -> t
create Page(x)
link Index() -> "Item" -> Page(x),
     Page(x) -> "title" -> t,
     Page(x) -> "nav" -> Nav()`},
		Templates: map[string]string{
			"index": `<SFMT nav EMBED><h1><SFMT kind></h1><SFMT Item UL ORDER=ascend KEY=title TEXT=title>`,
			"nav":   `<p>[<SFMT IndexLink TEXT=kind>]</p>`,
			"page":  `<SFMT nav EMBED><h1><SFMT title></h1>`,
		},
		PerObject:              map[string]string{"Index()": "index", "Nav()": "nav"},
		ObjectTemplatePrefixes: map[string]string{"Page(": "page"},
		Roots:                  []string{"Index()"},
	}
	cur := graph.New()
	for i := 0; i < 5; i++ {
		oid := graph.OID(fmt.Sprintf("i%d", i))
		cur.AddToCollection("Items", oid)
		cur.AddEdge(oid, "title", graph.NewString(fmt.Sprintf("Item %d", i)))
	}
	e, err := NewEngine(v, cur, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := cur.Copy()
	cur.AddToCollection("Items", "new")
	cur.AddEdge("new", "title", graph.NewString("New item"))
	pages, err := e.Apply(cur, mediator.Diff(prev, cur))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(pages)
	want := []string{"Page_new_.html", "index.html"}
	if fmt.Sprint(pages) != fmt.Sprint(want) {
		t.Errorf("dirty pages = %v, want exactly %v", pages, want)
	}
	requireOraclePages(t, e.Output(), v, cur, "member added")
}
