package dynamic

import (
	"fmt"
	"testing"

	"strudel/internal/graph"
	"strudel/internal/mediator"
	"strudel/internal/schema"
	"strudel/internal/struql"
)

// churnQuery is a site whose home page lists every paper and every
// staff member; a staff page reads no paper, and links home.
const churnQuery = `
create RootPage()
link RootPage() -> "title" -> "Home"

where Papers(x), x -> "title" -> t
create PaperPage(x)
link PaperPage(x) -> "title" -> t, RootPage() -> "Paper" -> PaperPage(x)

where Staff(s), s -> "name" -> n
create StaffPage(s)
link StaffPage(s) -> "name" -> n, StaffPage(s) -> "Home" -> RootPage(),
     RootPage() -> "Staff" -> StaffPage(s)
`

// churnData is generation k of a site whose 100 papers are all new in
// every generation while its one staff member stays.
func churnData(k int) *graph.Graph {
	g := graph.New()
	g.AddToCollection("Staff", "s1")
	g.AddEdge("s1", "name", graph.NewString("Ann"))
	for i := 0; i < 100; i++ {
		oid := graph.OID(fmt.Sprintf("g%dp%d", k, i))
		g.AddToCollection("Papers", oid)
		g.AddEdge(oid, "title", graph.NewString(fmt.Sprintf("Paper %d of generation %d", i, k)))
	}
	return g
}

// identities returns the sizes of the current generation's identity
// tables: the oid→ref map and the Skolem environment.
func identities(ev *Evaluator) (refs, env int) {
	st := ev.snapshot()
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.refs), st.env.Size()
}

// TestPageIdentitiesBoundedUnderChurn swaps in six generations of 100
// fresh pages each and crawls each one. The page identities a
// generation names go with it: after the first cycle the identity
// tables do not grow, and a dropped page's oid no longer resolves. A
// page kept across every swap keeps its oid, resolves, and its link
// home still resolves to the same page.
func TestPageIdentitiesBoundedUnderChurn(t *testing.T) {
	prev := churnData(0)
	ev := NewEvaluator(schema.Build(struql.MustParse(churnQuery)), prev.Freeze())
	staff := PageRef{Fn: "StaffPage", Args: []graph.Value{graph.NewNode("s1")}}
	staffOID := ev.OIDFor(staff)
	homeOID := ev.OIDFor(PageRef{Fn: "RootPage"})
	var firstRefs, firstEnv int
	var dropped graph.OID
	for k := 0; k < 6; k++ {
		if k > 0 {
			next := churnData(k)
			kept, gone := ev.SwapData(next.Freeze(), mediator.Diff(prev, next))
			prev = next
			if kept != 1 || gone != 101 {
				t.Fatalf("generation %d: swap kept %d and dropped %d pages, want the staff page kept and 101 dropped", k, kept, gone)
			}
			if got := ev.OIDFor(staff); got != staffOID {
				t.Fatalf("generation %d: the kept staff page is now %s, was %s", k, got, staffOID)
			}
			if ref, ok := ev.RefFor(staffOID); !ok || ref.Fn != "StaffPage" {
				t.Fatalf("generation %d: RefFor(%s) = %v, %v after the swap kept it", k, staffOID, ref, ok)
			}
		}
		if _, err := ev.MaterializeAll(); err != nil {
			t.Fatal(err)
		}
		if n := ev.CacheSize(); n != 102 {
			t.Fatalf("generation %d: crawl cached %d pages, want 102", k, n)
		}
		refs, env := identities(ev)
		if k == 0 {
			firstRefs, firstEnv = refs, env
		} else if refs > firstRefs || env > firstEnv {
			t.Fatalf("generation %d: identity tables grew from %d refs, %d Skolem entries after the first cycle to %d, %d",
				k, firstRefs, firstEnv, refs, env)
		}
		if dropped != "" {
			if ref, ok := ev.RefFor(dropped); ok {
				t.Fatalf("generation %d: a paper page dropped by the last swap still resolves to %v", k, ref)
			}
		}
		dropped = ev.OIDFor(PageRef{Fn: "PaperPage", Args: []graph.Value{graph.NewNode(graph.OID(fmt.Sprintf("g%dp0", k)))}})
		pd, err := ev.Page(staff)
		if err != nil {
			t.Fatal(err)
		}
		if links := ev.Links(pd); len(links) != 1 || ev.OIDFor(links[0]) != homeOID {
			t.Fatalf("generation %d: the staff page links to %v, want the home page %s", k, links, homeOID)
		}
	}
}

// BenchmarkSwapDataKeptPageLinks swaps generations under a kept home
// page that links to 20,000 pages: every swap carries the home page's
// identity and the 20,000 of its targets into the next generation.
func BenchmarkSwapDataKeptPageLinks(b *testing.B) {
	const links = 20000
	q := `where Papers(x)
create RootPage(), PaperPage(x)
link RootPage() -> "Paper" -> PaperPage(x)`
	g := graph.New()
	for i := 0; i < links; i++ {
		g.AddToCollection("Papers", graph.OID(fmt.Sprintf("p%d", i)))
	}
	data := g.Freeze()
	ev := NewEvaluator(schema.Build(struql.MustParse(q)), data)
	pd, err := ev.Page(PageRef{Fn: "RootPage"})
	if err != nil {
		b.Fatal(err)
	}
	if n := len(ev.Links(pd)); n != links {
		b.Fatalf("home page links to %d pages, want %d", n, links)
	}
	// An edit no page reads: the home page is kept by every swap.
	d := &mediator.Delta{AddedEdges: []graph.Edge{{From: "misc", Label: "note", To: graph.NewString("x")}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if kept, _ := ev.SwapData(data, d); kept != 1 {
			b.Fatalf("swap kept %d pages, want the home page", kept)
		}
	}
	b.StopTimer()
	if refs, _ := identities(ev); refs != links+1 {
		b.Fatalf("the generation holds %d identities, want %d", refs, links+1)
	}
}
