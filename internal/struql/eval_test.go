package struql

import (
	"fmt"
	"strings"
	"testing"

	"strudel/internal/graph"
)

// fig2Graph builds the Fig. 2 data-graph fragment.
func fig2Graph() *graph.Graph {
	g := graph.New()
	g.AddToCollection("Publications", "pub1")
	g.AddToCollection("Publications", "pub2")
	g.AddEdge("pub1", "title", graph.NewString("A Query Language for Web-Sites"))
	g.AddEdge("pub1", "author", graph.NewString("Fernandez"))
	g.AddEdge("pub1", "author", graph.NewString("Florescu"))
	g.AddEdge("pub1", "year", graph.NewInt(1997))
	g.AddEdge("pub1", "month", graph.NewString("September"))
	g.AddEdge("pub1", "journal", graph.NewString("SIGMOD Record"))
	g.AddEdge("pub1", "category", graph.NewString("websites"))
	g.AddEdge("pub2", "title", graph.NewString("Catching the Boat with Strudel"))
	g.AddEdge("pub2", "author", graph.NewString("Fernandez"))
	g.AddEdge("pub2", "year", graph.NewInt(1998))
	g.AddEdge("pub2", "booktitle", graph.NewString("SIGMOD"))
	g.AddEdge("pub2", "category", graph.NewString("websites"))
	g.AddEdge("pub2", "category", graph.NewString("semistructured"))
	return g
}

func evalOn(t *testing.T, q string, g *graph.Graph) *Result {
	t.Helper()
	r, err := Eval(MustParse(q), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEvalFig3ProducesFig4SiteGraph(t *testing.T) {
	r := evalOn(t, fig3Query, fig2Graph())
	site := r.Graph
	// Two year pages, one per distinct year.
	if !site.HasNode("YearPage(1997)") || !site.HasNode("YearPage(1998)") {
		t.Fatalf("year pages missing; nodes: %v", site.Nodes())
	}
	// Root links to both year pages and to the abstracts page.
	if !site.HasEdge("RootPage()", "YearPage", graph.NewNode("YearPage(1997)")) {
		t.Error("RootPage should link to YearPage(1997)")
	}
	if !site.HasEdge("RootPage()", "Abstracts", graph.NewNode("AbstractsPage()")) {
		t.Error("RootPage should link to AbstractsPage")
	}
	// Year pages link to the papers of that year only.
	if !site.HasEdge("YearPage(1997)", "Paper", graph.NewNode("PaperPresentation(pub1)")) {
		t.Error("YearPage(1997) should present pub1")
	}
	if site.HasEdge("YearPage(1997)", "Paper", graph.NewNode("PaperPresentation(pub2)")) {
		t.Error("YearPage(1997) must not present pub2")
	}
	// Category pages: "websites" presents both publications.
	if !site.HasEdge("CategoryPage(websites)", "Paper", graph.NewNode("PaperPresentation(pub1)")) ||
		!site.HasEdge("CategoryPage(websites)", "Paper", graph.NewNode("PaperPresentation(pub2)")) {
		t.Error("CategoryPage(websites) should present both pubs")
	}
	if !site.HasNode("CategoryPage(semistructured)") {
		t.Error("CategoryPage(semistructured) missing")
	}
	// Arc variables copied every attribute of pub1 into its presentation.
	if !site.HasEdge("PaperPresentation(pub1)", "journal", graph.NewString("SIGMOD Record")) {
		t.Error("attribute copy via arc variable failed (journal)")
	}
	if !site.HasEdge("PaperPresentation(pub2)", "booktitle", graph.NewString("SIGMOD")) {
		t.Error("attribute copy via arc variable failed (booktitle)")
	}
	// Irregularity carries over: pub2 has no month edge.
	if len(site.OutLabel("PaperPresentation(pub2)", "month")) != 0 {
		t.Error("pub2 presentation should not have month")
	}
	// Presentation links to its abstract page.
	if !site.HasEdge("PaperPresentation(pub1)", "Abstract", graph.NewNode("AbstractPage(pub1)")) {
		t.Error("presentation → abstract page link missing")
	}
}

func TestEvalSkolemIdentity(t *testing.T) {
	// The same Skolem application in different clauses yields one node:
	// YearPage(y) for equal y across publications in the same year.
	g := fig2Graph()
	g.AddEdge("pub3", "year", graph.NewInt(1997))
	g.AddEdge("pub3", "title", graph.NewString("third"))
	g.AddToCollection("Publications", "pub3")
	r := evalOn(t, fig3Query, g)
	count := 0
	for _, n := range r.Graph.Nodes() {
		if strings.HasPrefix(string(n), "YearPage(") {
			count++
		}
	}
	if count != 2 {
		t.Errorf("distinct year pages = %d, want 2 (1997 shared)", count)
	}
	papers := r.Graph.OutLabel("YearPage(1997)", "Paper")
	if len(papers) != 2 {
		t.Errorf("YearPage(1997) papers = %d, want 2", len(papers))
	}
}

// textOnlyQuery is the §2.2 copy query: it copies the subgraph reachable
// from the root, dropping edges that lead to image files.
const textOnlyQuery = `
where Root(p), p -> * -> q, isNode(q)
create New(q)
collect TextOnlyRoot(New(p))
{
  where q -> l -> q2, isNode(q2)
  link New(q) -> l -> New(q2)
}
{
  where q -> l -> q2, isAtom(q2), not(isImageFile(q2))
  link New(q) -> l -> q2
}
`

func textOnlyGraph() *graph.Graph {
	g := graph.New()
	g.AddToCollection("Root", "home")
	g.AddEdge("home", "news", graph.NewNode("article"))
	g.AddEdge("home", "logo", graph.NewFile(graph.FileImage, "logo.gif"))
	g.AddEdge("article", "text", graph.NewFile(graph.FileText, "body.txt"))
	g.AddEdge("article", "photo", graph.NewFile(graph.FileImage, "photo.jpg"))
	g.AddEdge("article", "title", graph.NewString("Headline"))
	g.AddEdge("article", "back", graph.NewNode("home"))
	g.AddEdge("orphan", "x", graph.NewString("unreachable"))
	return g
}

func TestEvalTextOnlyCopy(t *testing.T) {
	r := evalOn(t, textOnlyQuery, textOnlyGraph())
	site := r.Graph
	if !site.HasEdge("New(home)", "news", graph.NewNode("New(article)")) {
		t.Error("node-to-node edge not copied")
	}
	if !site.HasEdge("New(article)", "title", graph.NewString("Headline")) {
		t.Error("string atom not copied")
	}
	if !site.HasEdge("New(article)", "text", graph.NewFile(graph.FileText, "body.txt")) {
		t.Error("text file not copied")
	}
	if site.HasEdge("New(article)", "photo", graph.NewFile(graph.FileImage, "photo.jpg")) {
		t.Error("image file should be excluded")
	}
	if site.HasEdge("New(home)", "logo", graph.NewFile(graph.FileImage, "logo.gif")) {
		t.Error("image logo should be excluded")
	}
	if !site.HasEdge("New(article)", "back", graph.NewNode("New(home)")) {
		t.Error("cycle edge not copied")
	}
	if site.HasNode("New(orphan)") {
		t.Error("unreachable node should not be copied")
	}
	roots := site.Collection("TextOnlyRoot")
	if len(roots) != 1 || roots[0] != "New(home)" {
		t.Errorf("TextOnlyRoot = %v", roots)
	}
}

func TestEvalKleeneStarIncludesStart(t *testing.T) {
	// p -> * -> q matches the empty path, so q includes p itself.
	g := graph.New()
	g.AddToCollection("Root", "r")
	g.AddEdge("r", "a", graph.NewNode("s"))
	b, err := EvalWhere(MustParse(`where Root(p), p -> * -> q, isNode(q) create N(q)`).Blocks[0].Where,
		g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (r and s)", len(b.Rows))
	}
}

func TestEvalRegularPathExpressions(t *testing.T) {
	g := graph.New()
	g.AddToCollection("Start", "a")
	g.AddEdge("a", "x", graph.NewNode("b"))
	g.AddEdge("b", "y", graph.NewNode("c"))
	g.AddEdge("c", "x", graph.NewNode("d"))
	g.AddEdge("a", "z", graph.NewNode("e"))
	g.AddEdge("d", "final", graph.NewString("leaf"))
	src := g
	cases := []struct {
		path string
		want []string // expected q bindings (node oids or atom texts)
	}{
		{`"x"`, []string{"b"}},
		{`"x"."y"`, []string{"c"}},
		{`"x"|"z"`, []string{"b", "e"}},
		{`("x"|"y")*`, []string{"a", "b", "c", "d"}},
		{`_`, []string{"b", "e"}},
		{`_._`, []string{"c"}},
		{`"x"?`, []string{"a", "b"}},
		{`("x"|"y")+`, []string{"b", "c", "d"}},
		{`~"x|z"`, []string{"b", "e"}},
		{`("x"|"y")*."final"`, []string{"leaf"}},
	}
	for _, c := range cases {
		q := MustParse(fmt.Sprintf(`where Start(p), p -> %s -> q create N(q)`, c.path))
		b, err := EvalWhere(q.Blocks[0].Where, src, nil, nil)
		if err != nil {
			t.Errorf("%s: %v", c.path, err)
			continue
		}
		qi := b.Index("q")
		var got []string
		for _, row := range b.Rows {
			got = append(got, row[qi].Text())
		}
		if strings.Join(got, ",") != strings.Join(c.want, ",") {
			t.Errorf("path %s: q = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestEvalComparisonsAndPredicates(t *testing.T) {
	g := fig2Graph()
	r := evalOn(t, `where Publications(x), x -> "year" -> y, y > 1997 create Recent(x)`, g)
	if r.Graph.HasNode("Recent(pub1)") || !r.Graph.HasNode("Recent(pub2)") {
		t.Errorf("year filter wrong: %v", r.Graph.Nodes())
	}
	// String/number coercion in comparisons.
	g2 := graph.New()
	g2.AddToCollection("C", "n")
	g2.AddEdge("n", "year", graph.NewString("1998"))
	r2 := evalOn(t, `where C(x), x -> "year" -> y, y = 1998 create M(x)`, g2)
	if !r2.Graph.HasNode("M(n)") {
		t.Error("string '1998' should equal int 1998 by dynamic coercion")
	}
}

func TestEvalNegationJoins(t *testing.T) {
	// Publications with no booktitle attribute (journal papers).
	r := evalOn(t, `where Publications(x), not(x -> "booktitle" -> b) create J(x)`, fig2Graph())
	if !r.Graph.HasNode("J(pub1)") || r.Graph.HasNode("J(pub2)") {
		t.Errorf("negation wrong: %v", r.Graph.Nodes())
	}
}

func TestEvalNegationSharedVars(t *testing.T) {
	// Authors of pub1 who are not authors of pub2.
	r := evalOn(t, `where &pub1 -> "author" -> a, not(&pub2 -> "author" -> a) create Only1(a)`, fig2Graph())
	if !r.Graph.HasNode("Only1(Florescu)") {
		t.Error("Florescu authors only pub1")
	}
	if r.Graph.HasNode("Only1(Fernandez)") {
		t.Error("Fernandez authors both")
	}
}

func TestEvalArcVariableBindsSchema(t *testing.T) {
	// Arc variables range over the schema: collect attribute names.
	b, err := EvalWhere(MustParse(`where Publications(x), x -> l -> v create N(x)`).Blocks[0].Where,
		fig2Graph(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	li := b.Index("l")
	labels := map[string]bool{}
	for _, row := range b.Rows {
		labels[row[li].Text()] = true
	}
	for _, want := range []string{"title", "author", "year", "month", "journal", "booktitle", "category"} {
		if !labels[want] {
			t.Errorf("label %s not bound by arc variable", want)
		}
	}
}

func TestEvalLabelComparison(t *testing.T) {
	// Copy all attributes except category (template-level exclusion in
	// StruQL instead of templates).
	r := evalOn(t, `where Publications(x), x -> l -> v, l != "category" create P(x) link P(x) -> l -> v`, fig2Graph())
	if r.Graph.HasEdge("P(pub1)", "category", graph.NewString("websites")) {
		t.Error("category should be excluded")
	}
	if !r.Graph.HasEdge("P(pub1)", "title", graph.NewString("A Query Language for Web-Sites")) {
		t.Error("title should be copied")
	}
}

func TestEvalWhereLessBlock(t *testing.T) {
	r := evalOn(t, `create Home() link Home() -> "msg" -> Home()`, graph.New())
	if !r.Graph.HasEdge("Home()", "msg", graph.NewNode("Home()")) {
		t.Error("where-less block failed")
	}
}

func TestEvalConstTargets(t *testing.T) {
	r := evalOn(t, `where Publications(x), x -> "year" -> 1997 create Y97(x)`, fig2Graph())
	if !r.Graph.HasNode("Y97(pub1)") || r.Graph.HasNode("Y97(pub2)") {
		t.Errorf("const target filter wrong: %v", r.Graph.Nodes())
	}
}

func TestEvalNodeConstant(t *testing.T) {
	r := evalOn(t, `where &pub1 -> "author" -> a create A(a)`, fig2Graph())
	if !r.Graph.HasNode("A(Fernandez)") || !r.Graph.HasNode("A(Florescu)") {
		t.Errorf("node constant source failed: %v", r.Graph.Nodes())
	}
}

func TestEvalSeqComposition(t *testing.T) {
	// Second query navigates the graph built by the first, adding a nav
	// bar to every page (the suciu example's last step, §5.1).
	q1 := MustParse(`where Publications(x) create Page(x) link Page(x) -> "self" -> x collect Pages(Page(x))`)
	q2 := MustParse(`where Pages(p) create NavBar() link NavBar() -> "target" -> p`)
	got, err := EvalSeq([]*Query{q1, q2}, fig2Graph(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasEdge("NavBar()", "target", graph.NewNode("Page(pub1)")) ||
		!got.HasEdge("NavBar()", "target", graph.NewNode("Page(pub2)")) {
		t.Errorf("composition failed:\n%s", got.Dump())
	}
}

func TestEvalSeededWhere(t *testing.T) {
	// The dynamic evaluator's entry point: bind x and evaluate the rest.
	seed := &Bindings{Vars: []string{"x"}, Rows: [][]graph.Value{{graph.NewNode("pub1")}}}
	b, err := EvalWhere(MustParse(`where Publications(x), x -> "author" -> a create N(a)`).Blocks[0].Where,
		fig2Graph(), seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) != 2 {
		t.Errorf("seeded rows = %d, want 2 (authors of pub1 only)", len(b.Rows))
	}
}

func TestEvalOptimizerMatchesTextualOrder(t *testing.T) {
	// The planner must not change query semantics.
	queries := []string{
		fig3Query,
		textOnlyQuery,
		`where Publications(x), x -> "year" -> y, y > 1996, x -> "author" -> a create N(x, a)`,
		`where Publications(x), not(x -> "month" -> m), x -> l -> v create P(x) link P(x) -> l -> v`,
		`where a -> "author" -> w, b -> "author" -> w, a != b create Pair(a, b)`,
	}
	src := fig2Graph()
	src2 := textOnlyGraph()
	for _, qs := range queries {
		q := MustParse(qs)
		for _, s := range []Source{src, src2} {
			opt, err := Eval(q, s, nil)
			if err != nil {
				t.Fatalf("%s: %v", qs[:30], err)
			}
			txt, err := Eval(q, s, &Options{NoReorder: true})
			if err != nil {
				t.Fatalf("%s: %v", qs[:30], err)
			}
			if opt.Graph.Dump() != txt.Graph.Dump() {
				t.Errorf("optimizer changed semantics for query:\n%s\n--- optimized\n%s--- textual\n%s",
					qs, opt.Graph.Dump(), txt.Graph.Dump())
			}
		}
	}
}

func TestEvalSelfJoin(t *testing.T) {
	// Pairs of distinct publications sharing an author.
	r := evalOn(t, `where a -> "author" -> w, b -> "author" -> w, a != b create Pair(a, b)`, fig2Graph())
	if !r.Graph.HasNode("Pair(pub1,pub2)") || !r.Graph.HasNode("Pair(pub2,pub1)") {
		t.Errorf("self join failed: %v", r.Graph.Nodes())
	}
}

func TestEvalRowsCounted(t *testing.T) {
	r := evalOn(t, `where Publications(x) create N(x)`, fig2Graph())
	if r.Rows != 2 {
		t.Errorf("Rows = %d, want 2", r.Rows)
	}
	if len(r.Plan) == 0 {
		t.Error("plan should be recorded")
	}
}

func TestEvalCollectAtomFails(t *testing.T) {
	_, err := Eval(MustParse(`where Publications(x), x -> "year" -> y create N(x) collect Years(y)`),
		fig2Graph(), nil)
	if err == nil || !strings.Contains(err.Error(), "collections contain objects") {
		t.Errorf("collect of atom: err = %v", err)
	}
}

func TestEvalEmptyCollection(t *testing.T) {
	r := evalOn(t, `where NoSuch(x) create N(x)`, fig2Graph())
	if r.Graph.NumNodes() != 0 {
		t.Errorf("empty collection should yield nothing, got %v", r.Graph.Nodes())
	}
}

func TestSkolemEnvIdentityAndInjectivity(t *testing.T) {
	env := NewSkolemEnv()
	a := env.OID("F", []graph.Value{graph.NewString("x")})
	b := env.OID("F", []graph.Value{graph.NewString("x")})
	if a != b {
		t.Error("same inputs must give same oid")
	}
	// Different values with colliding display text must stay distinct.
	c := env.OID("F", []graph.Value{graph.NewString("a,b")})
	d := env.OID("F", []graph.Value{graph.NewString("a(b")})
	if c == d {
		t.Errorf("sanitization collision not disambiguated: %s vs %s", c, d)
	}
	// Int 1 and string "1" are distinct Skolem inputs.
	e := env.OID("F", []graph.Value{graph.NewInt(1)})
	f := env.OID("F", []graph.Value{graph.NewString("1")})
	if e == f {
		t.Error("int and string args must produce distinct oids")
	}
	if env.Size() != 5 {
		t.Errorf("Size = %d, want 5", env.Size())
	}
}

func TestSkolemLongArgsTruncated(t *testing.T) {
	env := NewSkolemEnv()
	long := strings.Repeat("verylong", 20)
	oid := env.OID("F", []graph.Value{graph.NewString(long)})
	if len(oid) > 80 {
		t.Errorf("oid too long: %d chars", len(oid))
	}
	again := env.OID("F", []graph.Value{graph.NewString(long)})
	if oid != again {
		t.Error("truncated oid identity broken")
	}
}
