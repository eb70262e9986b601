package ivm

import (
	"fmt"
	"slices"
	"testing"

	"strudel/internal/core"
	"strudel/internal/graph"
	"strudel/internal/mediator"
	"strudel/internal/obs"
	"strudel/internal/struql"
)

// testVersion wraps a query in a minimal renderable version: a constant
// root page so the generator always has a realization root.
func testVersion(query string) *core.Version {
	return &core.Version{
		Name:      "t",
		Queries:   []string{"create RootPage()\nlink RootPage() -> \"title\" -> \"t\"\n" + query},
		Templates: map[string]string{"root": "<h1><SFMT title></h1>"},
		PerObject: map[string]string{"RootPage()": "root"},
		Roots:     []string{"RootPage()"},
	}
}

// oracleGraph evaluates the version's query from scratch with a fresh
// Skolem environment — the ground truth the engine must track.
func oracleGraph(t *testing.T, e *Engine, data *graph.Graph) *graph.Graph {
	t.Helper()
	res, err := struql.Eval(e.query, struql.NewGraphSource(data), nil)
	if err != nil {
		t.Fatalf("oracle eval: %v", err)
	}
	return res.Graph
}

func requireSameGraph(t *testing.T, want, got *graph.Graph, context string) {
	t.Helper()
	d := mediator.Diff(want, got)
	if !d.Empty() {
		t.Fatalf("%s: engine site graph diverged from full evaluation:\n+edges %v\n-edges %v\n+members %v\n-members %v",
			context, d.AddedEdges, d.RemovedEdges, d.AddedMembers, d.RemovedMembers)
	}
}

// applyAndCheck mutates the working graph via edit, pushes the diff
// through the engine, and asserts the maintained site graph matches a
// from-scratch evaluation.
func applyAndCheck(t *testing.T, e *Engine, cur *graph.Graph, context string, edit func(g *graph.Graph)) {
	t.Helper()
	prev := cur.Copy()
	edit(cur)
	delta := mediator.Diff(prev, cur)
	if _, err := e.Apply(struql.NewGraphSource(cur), delta); err != nil {
		t.Fatalf("%s: apply: %v", context, err)
	}
	requireSameGraph(t, oracleGraph(t, e, cur), e.Site(), context)
}

func newTestEngine(t *testing.T, query string, data *graph.Graph) *Engine {
	t.Helper()
	e, err := NewEngine(testVersion(query), struql.NewGraphSource(data), nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	requireSameGraph(t, oracleGraph(t, e, data), e.Site(), "initial build")
	return e
}

func baseGraph() *graph.Graph {
	g := graph.New()
	for i := 0; i < 6; i++ {
		oid := graph.OID(fmt.Sprintf("p%d", i))
		g.AddToCollection("Papers", oid)
		g.AddEdge(oid, "title", graph.NewString(fmt.Sprintf("Paper %d", i)))
		g.AddEdge(oid, "year", graph.NewInt(int64(1994+i%3)))
		if i%2 == 0 {
			g.AddEdge(oid, "topic", graph.NewString("db"))
		}
	}
	g.AddEdge("p0", "cites", graph.NewNode("p1"))
	g.AddEdge("p1", "cites", graph.NewNode("p2"))
	return g
}

// --- per-operator differential tests -------------------------------

func TestDeltaMemberJoin(t *testing.T) {
	q := `where Papers(x), x -> "title" -> ti
create PaperPage(x)
link PaperPage(x) -> "title" -> ti
collect Pages(PaperPage(x))`
	cur := baseGraph()
	e := newTestEngine(t, q, cur)
	if e.blocks[1].sites == nil {
		t.Fatal("member join block should be tier A")
	}
	applyAndCheck(t, e, cur, "add member+title", func(g *graph.Graph) {
		g.AddToCollection("Papers", "p9")
		g.AddEdge("p9", "title", graph.NewString("Paper 9"))
	})
	applyAndCheck(t, e, cur, "remove member", func(g *graph.Graph) {
		g.RemoveFromCollection("Papers", "p1")
	})
	applyAndCheck(t, e, cur, "remove title edge", func(g *graph.Graph) {
		g.RemoveEdge("p2", "title", graph.NewString("Paper 2"))
	})
	applyAndCheck(t, e, cur, "mutate title", func(g *graph.Graph) {
		g.RemoveEdge("p3", "title", graph.NewString("Paper 3"))
		g.AddEdge("p3", "title", graph.NewString("Paper 3 rev"))
	})
}

func TestDeltaCmpFilter(t *testing.T) {
	q := `where Papers(x), x -> "year" -> y, y > 1994
create Recent(x)
link Recent(x) -> "year" -> y`
	cur := baseGraph()
	e := newTestEngine(t, q, cur)
	applyAndCheck(t, e, cur, "add passing year", func(g *graph.Graph) {
		g.AddToCollection("Papers", "px")
		g.AddEdge("px", "year", graph.NewInt(1999))
	})
	applyAndCheck(t, e, cur, "add failing year", func(g *graph.Graph) {
		g.AddToCollection("Papers", "py")
		g.AddEdge("py", "year", graph.NewInt(1990))
	})
	applyAndCheck(t, e, cur, "cross the threshold", func(g *graph.Graph) {
		g.RemoveEdge("py", "year", graph.NewInt(1990))
		g.AddEdge("py", "year", graph.NewInt(1997))
	})
}

func TestDeltaEdgeVariable(t *testing.T) {
	q := `where Papers(x), x -> l -> v
create Attr(x)
link Attr(x) -> l -> v`
	cur := baseGraph()
	e := newTestEngine(t, q, cur)
	if e.blocks[1].sites == nil {
		t.Fatal("arc-variable block should be tier A")
	}
	applyAndCheck(t, e, cur, "add arbitrary attribute", func(g *graph.Graph) {
		g.AddEdge("p0", "venue", graph.NewString("SIGMOD"))
	})
	applyAndCheck(t, e, cur, "remove attribute", func(g *graph.Graph) {
		g.RemoveEdge("p0", "topic", graph.NewString("db"))
	})
}

func TestDeltaSingleStepPath(t *testing.T) {
	q := `where Papers(x), x -> ~"cit.*" -> y
create Citing(x)
link Citing(x) -> "to" -> y`
	cur := baseGraph()
	e := newTestEngine(t, q, cur)
	if e.blocks[1].sites == nil {
		t.Fatal("single-step regex path should be tier A")
	}
	applyAndCheck(t, e, cur, "add matching edge", func(g *graph.Graph) {
		g.AddEdge("p3", "cites", graph.NewNode("p0"))
	})
	applyAndCheck(t, e, cur, "remove matching edge", func(g *graph.Graph) {
		g.RemoveEdge("p0", "cites", graph.NewNode("p1"))
	})
}

func TestDeltaWildcardPathRemoval(t *testing.T) {
	// A wildcard step binds no label, so a row survives the removal of
	// one of two edges between its ends and dies with the second.
	q := `where Papers(x), x -> _ -> y, Papers(y)
create Linked(x)
link Linked(x) -> "to" -> y`
	cur := baseGraph()
	cur.AddEdge("p0", "extends", graph.NewNode("p1"))
	e := newTestEngine(t, q, cur)
	if e.blocks[1].sites == nil {
		t.Fatal("single-step wildcard path should be tier A")
	}
	applyAndCheck(t, e, cur, "remove one of two edges", func(g *graph.Graph) {
		g.RemoveEdge("p0", "cites", graph.NewNode("p1"))
	})
	applyAndCheck(t, e, cur, "remove the last edge", func(g *graph.Graph) {
		g.RemoveEdge("p0", "extends", graph.NewNode("p1"))
	})
	if e.Site().HasEdge("Linked(p0)", "to", graph.NewNode("p1")) {
		t.Error("a row with no edge left between its ends survived")
	}
}

func TestDeltaStarPathTierB(t *testing.T) {
	q := `where Papers(x), x -> "cites"* -> y
create Reach(x)
link Reach(x) -> "r" -> y`
	cur := baseGraph()
	e := newTestEngine(t, q, cur)
	if e.blocks[1].sites != nil {
		t.Fatal("closure path must be tier B (delete-and-rederive by block re-evaluation)")
	}
	applyAndCheck(t, e, cur, "extend the chain", func(g *graph.Graph) {
		g.AddEdge("p2", "cites", graph.NewNode("p3"))
	})
	applyAndCheck(t, e, cur, "cut the chain", func(g *graph.Graph) {
		g.RemoveEdge("p1", "cites", graph.NewNode("p2"))
	})
}

func TestDeltaNegation(t *testing.T) {
	q := `where Papers(x), not(x -> "topic" -> z)
create Untopical(x)
collect Plain(Untopical(x))`
	cur := baseGraph()
	e := newTestEngine(t, q, cur)
	if e.blocks[1].sites == nil {
		t.Fatal("one-level negation should be tier A")
	}
	// An addition inside the negation kills a row.
	applyAndCheck(t, e, cur, "negation add kills", func(g *graph.Graph) {
		g.AddEdge("p1", "topic", graph.NewString("web"))
	})
	// A removal inside the negation gives birth to a row
	// (delete-and-rederive: the site is re-evaluated).
	applyAndCheck(t, e, cur, "negation remove births", func(g *graph.Graph) {
		g.RemoveEdge("p0", "topic", graph.NewString("db"))
	})
}

func TestDeltaSkolemGroupingNested(t *testing.T) {
	// The canonical Skolem grouping idiom: one YearPage per distinct
	// year, attributes attached in a nested block.
	q := `where Papers(x), x -> "year" -> y
create YearPage(y)
link YearPage(y) -> "paper" -> x
{ where x -> "title" -> ti
  link YearPage(y) -> "entry" -> ti }`
	cur := baseGraph()
	e := newTestEngine(t, q, cur)
	applyAndCheck(t, e, cur, "new paper joins existing year group", func(g *graph.Graph) {
		g.AddToCollection("Papers", "p7")
		g.AddEdge("p7", "year", graph.NewInt(1995))
		g.AddEdge("p7", "title", graph.NewString("Paper 7"))
	})
	applyAndCheck(t, e, cur, "new year births a group page", func(g *graph.Graph) {
		g.AddToCollection("Papers", "p8")
		g.AddEdge("p8", "year", graph.NewInt(2001))
		g.AddEdge("p8", "title", graph.NewString("Paper 8"))
	})
	applyAndCheck(t, e, cur, "last member leaves a group", func(g *graph.Graph) {
		g.RemoveEdge("p8", "year", graph.NewInt(2001))
	})
}

func TestDeltaAggregateTierB(t *testing.T) {
	q := `where Papers(x), x -> "year" -> y
aggregate count(x) as n by y
create YearCount(y)
link YearCount(y) -> "n" -> n`
	cur := baseGraph()
	e := newTestEngine(t, q, cur)
	if e.blocks[1].sites != nil {
		t.Fatal("aggregation must be tier B")
	}
	applyAndCheck(t, e, cur, "count shifts", func(g *graph.Graph) {
		g.AddToCollection("Papers", "pz")
		g.AddEdge("pz", "year", graph.NewInt(1994))
	})
}

// --- randomized edit storm -----------------------------------------

// editRand mirrors the struql differential oracle's self-contained LCG
// so edit storms are reproducible from a plain integer seed.
type editRand struct{ s uint64 }

func newEditRand(seed uint64) *editRand {
	return &editRand{s: seed*2654435761 + 0x9e3779b97f4a7c15}
}

func (r *editRand) n(k int) int {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return int((r.s >> 33) % uint64(k))
}

func (r *editRand) pick(ss ...string) string { return ss[r.n(len(ss))] }

// randomEdit applies one random source edit: an added edge, a removed
// edge, a value mutation, a membership change, or a whole-record
// deletion — the edit-storm vocabulary of the soak suite.
func randomEdit(r *editRand, g *graph.Graph) {
	oid := func() graph.OID { return graph.OID(fmt.Sprintf("p%d", r.n(10))) }
	label := func() string { return r.pick("title", "year", "topic", "cites") }
	value := func() graph.Value {
		switch r.n(3) {
		case 0:
			return graph.NewString(r.pick("a", "b", "db", "web"))
		case 1:
			return graph.NewInt(int64(1990 + r.n(10)))
		default:
			return graph.NewNode(oid())
		}
	}
	switch r.n(5) {
	case 0: // add edge
		g.AddEdge(oid(), label(), value())
	case 1: // remove an existing edge, if any
		o := oid()
		if es := g.Out(o); len(es) > 0 {
			e := es[r.n(len(es))]
			g.RemoveEdge(e.From, e.Label, e.To)
		}
	case 2: // mutate a value in place
		o := oid()
		if es := g.Out(o); len(es) > 0 {
			e := es[r.n(len(es))]
			g.RemoveEdge(e.From, e.Label, e.To)
			g.AddEdge(e.From, e.Label, value())
		}
	case 3: // membership churn
		if r.n(2) == 0 {
			g.AddToCollection("Papers", oid())
		} else {
			g.RemoveFromCollection("Papers", oid())
		}
	case 4: // delete the whole record
		o := oid()
		for _, e := range g.Out(o) {
			g.RemoveEdge(e.From, e.Label, e.To)
		}
		g.RemoveFromCollection("Papers", o)
		g.RemoveNode(o)
	}
}

func TestDeltaEditStormDifferential(t *testing.T) {
	queries := map[string]string{
		"join": `where Papers(x), x -> "title" -> ti
create PaperPage(x)
link PaperPage(x) -> "title" -> ti
collect Pages(PaperPage(x))`,
		"grouping": `where Papers(x), x -> "year" -> y
create YearPage(y)
link YearPage(y) -> "paper" -> x
{ where x -> "title" -> ti
  link YearPage(y) -> "entry" -> ti }`,
		"negation": `where Papers(x), not(x -> "topic" -> z)
create Untopical(x)
collect Plain(Untopical(x))`,
		"closure": `where Papers(x), x -> "cites"* -> y
create Reach(x)
link Reach(x) -> "r" -> y`,
		"arcvar": `where Papers(x), x -> l -> v
create Attr(x)
link Attr(x) -> l -> v`,
	}
	for name, q := range queries {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				cur := baseGraph()
				e := newTestEngine(t, q, cur)
				r := newEditRand(seed)
				for i := 0; i < 40; i++ {
					applyAndCheck(t, e, cur, fmt.Sprintf("seed %d edit %d", seed, i),
						func(g *graph.Graph) { randomEdit(r, g) })
				}
			}
		})
	}
}

// TestDeltaPageDirtying asserts the engine reports the regenerated page
// names, and that untouched pages keep their bytes.
func TestDeltaPageDirtying(t *testing.T) {
	q := `where Papers(x), x -> "title" -> ti
create PaperPage(x)
link PaperPage(x) -> "title" -> ti,
     RootPage() -> "paper" -> PaperPage(x)`
	v := testVersion(q)
	v.Templates["paper"] = `<h2><SFMT title></h2>`
	v.ObjectTemplatePrefixes = map[string]string{"PaperPage(": "paper"}
	v.Templates["root"] = `<h1><SFMT title></h1><SFMT paper UL TEXT=title>`
	cur := baseGraph()
	e, err := NewEngine(v, struql.NewGraphSource(cur), nil)
	if err != nil {
		t.Fatal(err)
	}
	before := map[string]string{}
	for n, p := range e.Output().Pages {
		before[n] = p
	}
	prev := cur.Copy()
	cur.RemoveEdge("p4", "title", graph.NewString("Paper 4"))
	cur.AddEdge("p4", "title", graph.NewString("Paper 4 v2"))
	pages, err := e.Apply(struql.NewGraphSource(cur), mediator.Diff(prev, cur))
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) == 0 {
		t.Fatal("no pages reported dirty")
	}
	dirty := map[string]bool{}
	for _, p := range pages {
		dirty[p] = true
	}
	changedOther := false
	for n, p := range e.Output().Pages {
		if dirty[n] {
			continue
		}
		if before[n] != p {
			changedOther = true
		}
	}
	if changedOther {
		t.Error("a page changed without being reported dirty")
	}
	// The edited paper's page must carry the new title.
	found := false
	for _, p := range pages {
		if e.Output().Pages[p] != "" && before[p] != e.Output().Pages[p] {
			found = true
		}
	}
	if !found {
		t.Error("no dirty page actually changed")
	}
}

// --- block-granularity maintenance ----------------------------------

// pubsVersion is a publications site: one page per paper, grouped into
// one page per year, linked from a constant root block (block 0).
func pubsVersion() *core.Version {
	return &core.Version{
		Name: "pubs",
		Queries: []string{`create RootPage()
link RootPage() -> "title" -> "Home"

where Publications(x)
create PaperPage(x)
link PaperPage(x) -> "self" -> x
{ where x -> "title" -> t
  link PaperPage(x) -> "title" -> t }
{ where x -> "year" -> y
  create YearPage(y)
  link YearPage(y) -> "Year" -> y,
       YearPage(y) -> "Paper" -> PaperPage(x),
       RootPage() -> "YearPage" -> YearPage(y) }`},
		Templates: map[string]string{
			"root":  `<h1><SFMT title></h1><SFMT YearPage UL ORDER=ascend KEY=Year>`,
			"year":  `<h1><SFMT Year></h1><SFMT Paper UL TEXT=title>`,
			"paper": `<b><SFMT title></b>`,
		},
		PerObject:              map[string]string{"RootPage()": "root"},
		ObjectTemplatePrefixes: map[string]string{"YearPage(": "year", "PaperPage(": "paper"},
		Roots:                  []string{"RootPage()"},
	}
}

func pubsData() *graph.Graph {
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

func addPub(oid graph.OID, year int64) func(g *graph.Graph) {
	return func(g *graph.Graph) {
		g.AddToCollection("Publications", oid)
		g.AddEdge(oid, "title", graph.NewString("Paper "+string(oid)))
		g.AddEdge(oid, "year", graph.NewInt(year))
	}
}

// libraryVersion has a constant root block (0), a books block (1) and
// an authors block (2), each book and author on a page of its own.
func libraryVersion() *core.Version {
	return &core.Version{
		Name: "library",
		Queries: []string{`create Root()
link Root() -> "title" -> "Library"

where Books(b)
create BookPage(b)
link Root() -> "Book" -> BookPage(b)
{ where b -> "title" -> t
  link BookPage(b) -> "title" -> t }

where Authors(a)
create AuthorPage(a)
link Root() -> "Author" -> AuthorPage(a)
{ where a -> "name" -> n
  link AuthorPage(a) -> "name" -> n }`},
		Templates: map[string]string{
			"Root":   `<h1><SFMT title></h1><SFMT Book UL TEXT=title><SFMT Author UL TEXT=name>`,
			"Book":   `<b><SFMT title></b>`,
			"Author": `<i><SFMT name></i>`,
		},
		PerObject:              map[string]string{"Root()": "Root"},
		ObjectTemplatePrefixes: map[string]string{"BookPage(": "Book", "AuthorPage(": "Author"},
		Roots:                  []string{"Root()"},
	}
}

func libraryData() *graph.Graph {
	g := graph.New()
	g.AddToCollection("Authors", "a1")
	g.AddEdge("a1", "name", graph.NewString("Knuth"))
	addBook("b1", "TAOCP")(g)
	return g
}

func addBook(oid graph.OID, title string) func(g *graph.Graph) {
	return func(g *graph.Graph) {
		g.AddToCollection("Books", oid)
		g.AddEdge(oid, "title", graph.NewString(title))
	}
}

// twoCollVersion reads two disjoint collections in blocks 0 and 1.
func twoCollVersion() *core.Version {
	return &core.Version{
		Name: "twocoll",
		Queries: []string{`where As(a)
create PA(a)
link Index() -> "A" -> PA(a)
{ where a -> l -> v link PA(a) -> l -> v }

where Bs(b)
create PB(b)
link Index() -> "B" -> PB(b)
{ where b -> l -> v link PB(b) -> l -> v }`},
		Templates: map[string]string{
			"index": `<SFMT A UL><SFMT B UL>`,
			"item":  `<SFMT x><SFMT y><SFMT z>`,
		},
		PerObject:              map[string]string{"Index()": "index"},
		ObjectTemplatePrefixes: map[string]string{"PA(": "item", "PB(": "item"},
		Roots:                  []string{"Index()"},
	}
}

func twoCollData() *graph.Graph {
	g := graph.New()
	g.AddToCollection("As", "a1")
	g.AddEdge("a1", "x", graph.NewInt(1))
	g.AddToCollection("Bs", "b1")
	g.AddEdge("b1", "y", graph.NewInt(2))
	return g
}

// TestDeltaBlockMaintenance pins what block-granularity maintenance
// promises, edit by edit: the maintained site graph equals a monolithic
// evaluation and its pages equal a from-scratch build; a block the
// delta cannot affect is not re-derived and dirties none of its pages;
// and a delta that affects nothing does no work at all.
func TestDeltaBlockMaintenance(t *testing.T) {
	cases := []struct {
		name    string
		version func() *core.Version
		data    func() *graph.Graph
		edits   []func(g *graph.Graph)
		// untouched lists blocks no edit may re-derive; clean lists page
		// objects no edit may dirty.
		untouched []int
		clean     []graph.OID
		// idle: no edit may dirty a page or move a row, site or block
		// counter.
		idle          bool
		present, gone []graph.OID
	}{{
		name:      "additive",
		version:   pubsVersion,
		data:      pubsData,
		edits:     []func(*graph.Graph){addPub("pub4", 1999)},
		untouched: []int{0},
		present:   []graph.OID{"YearPage(1999)", "PaperPage(pub4)"},
	}, {
		name:    "removal",
		version: pubsVersion,
		data:    pubsData,
		edits: []func(*graph.Graph){func(g *graph.Graph) {
			// pub2 is the only 1998 paper: its year page must vanish.
			g.RemoveEdge("pub2", "year", graph.NewInt(1998))
		}},
		untouched: []int{0},
		present:   []graph.OID{"PaperPage(pub2)"},
		gone:      []graph.OID{"YearPage(1998)"},
	}, {
		name:    "removed_page",
		version: libraryVersion,
		data: func() *graph.Graph {
			g := libraryData()
			addBook("b2", "SICP")(g)
			return g
		},
		edits: []func(*graph.Graph){func(g *graph.Graph) {
			g.RemoveEdge("b2", "title", graph.NewString("SICP"))
			g.RemoveFromCollection("Books", "b2")
			g.RemoveNode("b2")
		}},
		untouched: []int{0, 2},
		clean:     []graph.OID{"AuthorPage(a1)"},
		gone:      []graph.OID{"BookPage(b2)"},
	}, {
		name:    "unrelated",
		version: pubsVersion,
		data:    pubsData,
		edits: []func(*graph.Graph){func(g *graph.Graph) {
			g.AddEdge("misc", "noise", graph.NewInt(1))
		}},
		untouched: []int{0, 1},
		clean:     []graph.OID{"RootPage()", "YearPage(1997)", "PaperPage(pub1)"},
		idle:      true,
	}, {
		name:    "localized",
		version: twoCollVersion,
		data:    twoCollData,
		edits: []func(*graph.Graph){func(g *graph.Graph) {
			g.AddEdge("b1", "z", graph.NewInt(3))
		}},
		untouched: []int{0},
		clean:     []graph.OID{"PA(a1)"},
	}, {
		name:      "end_to_end",
		version:   libraryVersion,
		data:      libraryData,
		edits:     []func(*graph.Graph){addBook("b2", "SICP")},
		untouched: []int{0, 2},
		clean:     []graph.OID{"AuthorPage(a1)"},
		present:   []graph.OID{"BookPage(b2)"},
	}, {
		name:      "repeated",
		version:   pubsVersion,
		data:      pubsData,
		edits:     []func(*graph.Graph){addPub("extra0", 2000), addPub("extra1", 2001), addPub("extra2", 1997)},
		untouched: []int{0},
		present:   []graph.OID{"YearPage(2000)", "YearPage(2001)", "PaperPage(extra2)"},
	}, {
		name:      "empty",
		version:   libraryVersion,
		data:      libraryData,
		edits:     []func(*graph.Graph){func(*graph.Graph) {}},
		untouched: []int{0, 1, 2},
		clean:     []graph.OID{"Root()", "BookPage(b1)", "AuthorPage(a1)"},
		idle:      true,
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, cur := tc.version(), tc.data()
			evals := &obs.EvalMetrics{}
			e, err := NewEngine(v, struql.NewGraphSource(cur), &core.Options{Eval: evals})
			if err != nil {
				t.Fatal(err)
			}
			m := &obs.IVMMetrics{}
			e.Obs = m
			requireSameGraph(t, oracleGraph(t, e, cur), e.Site(), "initial build")
			// rest maintains only the blocks an edit may re-derive: every
			// where-clause evaluation e makes beyond rest's is work spent
			// on an untouched block.
			restEvals := &obs.EvalMetrics{}
			rest, err := NewEngine(v, struql.NewGraphSource(cur), &core.Options{Eval: restEvals})
			if err != nil {
				t.Fatal(err)
			}
			all := rest.blocks
			rest.blocks = nil
			for b, bs := range all {
				if !slices.Contains(tc.untouched, b) {
					rest.blocks = append(rest.blocks, bs)
				}
			}
			for i, edit := range tc.edits {
				context := fmt.Sprintf("edit %d", i)
				before := map[graph.OID]string{}
				for _, oid := range tc.clean {
					file, ok := e.Output().PageFiles[oid]
					if !ok {
						t.Fatalf("%s: %s has no page", context, oid)
					}
					before[oid] = e.Output().Pages[file]
				}
				prev := cur.Copy()
				edit(cur)
				delta := mediator.Diff(prev, cur)
				evalsBefore, restBefore := evals.WhereEvals.Load(), restEvals.WhereEvals.Load()
				pages, err := e.Apply(struql.NewGraphSource(cur), delta)
				if err != nil {
					t.Fatalf("%s: apply: %v", context, err)
				}
				if _, err := rest.Apply(struql.NewGraphSource(cur), delta); err != nil {
					t.Fatalf("%s: apply without the untouched blocks: %v", context, err)
				}
				requireSameGraph(t, oracleGraph(t, e, cur), e.Site(), context)
				requireOraclePages(t, e.Output(), v, cur, context)
				did, need := evals.WhereEvals.Load()-evalsBefore, restEvals.WhereEvals.Load()-restBefore
				if did != need {
					t.Errorf("%s: blocks %v re-derived for a delta they cannot see: %d where-evaluations, the other blocks need %d",
						context, tc.untouched, did, need)
				}
				dirty := map[string]bool{}
				for _, p := range pages {
					dirty[p] = true
				}
				for _, oid := range tc.clean {
					file := e.Output().PageFiles[oid]
					if dirty[file] || e.Output().Pages[file] != before[oid] {
						t.Errorf("%s: page of %s dirtied", context, oid)
					}
				}
				if tc.idle {
					work := m.RowsInserted.Load() + m.RowsRemoved.Load() +
						m.SitesReevaluated.Load() + m.BlocksReevaluated.Load() + did
					if len(pages) != 0 || work != 0 {
						t.Errorf("%s: idle delta dirtied %v and did %d units of work", context, pages, work)
					}
				}
			}
			for _, oid := range tc.present {
				if !e.Site().HasNode(oid) {
					t.Errorf("%s missing from the maintained site", oid)
				}
			}
			for _, oid := range tc.gone {
				if e.Site().HasNode(oid) {
					t.Errorf("%s survived in the maintained site", oid)
				}
			}
		})
	}
}

// TestEngineRendersAtBuildParallelism: the engine sets up its generator
// the way a full build does (core.NewGenerator), so the build's
// Parallelism reaches it and `strudel -watch -j 1` renders, and
// re-renders after each edit, with one worker.
func TestEngineRendersAtBuildParallelism(t *testing.T) {
	for _, par := range []int{1, 3} {
		cur := pubsData()
		e, err := NewEngine(pubsVersion(), struql.NewGraphSource(cur), &core.Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if e.gen.Parallelism != par {
			t.Errorf("Parallelism %d: engine renders with Parallelism %d", par, e.gen.Parallelism)
		}
		applyAndCheck(t, e, cur, fmt.Sprintf("Parallelism %d", par), addPub("pub4", 1999))
	}
}
