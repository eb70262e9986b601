package schema

import (
	"strings"
	"testing"

	"strudel/internal/graph"
	"strudel/internal/struql"
)

// fig3Query mirrors the reconstruction used in package struql's tests.
const fig3Query = `
create RootPage(), AbstractsPage()
link RootPage() -> "Abstracts" -> AbstractsPage()

where Publications(x)
create AbstractPage(x), PaperPresentation(x)
link PaperPresentation(x) -> "Abstract" -> AbstractPage(x),
     AbstractsPage() -> "Abstract" -> AbstractPage(x)
{
  where x -> l -> v
  link AbstractPage(x) -> l -> v,
       PaperPresentation(x) -> l -> v
}
{
  where x -> "year" -> y
  create YearPage(y)
  link YearPage(y) -> "Year" -> y,
       YearPage(y) -> "Paper" -> PaperPresentation(x),
       RootPage() -> "YearPage" -> YearPage(y)
}
{
  where x -> "category" -> c
  create CategoryPage(c)
  link CategoryPage(c) -> "Category" -> c,
       CategoryPage(c) -> "Paper" -> PaperPresentation(x),
       RootPage() -> "CategoryPage" -> CategoryPage(c)
}
`

func fig7Schema(t *testing.T) *Schema {
	t.Helper()
	return Build(struql.MustParse(fig3Query))
}

func TestFig7SiteSchemaNodes(t *testing.T) {
	s := fig7Schema(t)
	want := []string{"AbstractPage", "AbstractsPage", "CategoryPage", NS, "PaperPresentation", "RootPage", "YearPage"}
	if strings.Join(s.Nodes, ",") != strings.Join(want, ",") {
		t.Errorf("Nodes = %v, want %v", s.Nodes, want)
	}
}

func TestFig7SiteSchemaEdges(t *testing.T) {
	s := fig7Schema(t)
	// The paper's example: the link YearPage(y) -> "Paper" ->
	// PaperPresentation(x) corresponds to a schema edge labeled with the
	// conjunction of the outer and nested where clauses.
	var found *Edge
	for i, e := range s.Edges {
		if e.From == "YearPage" && e.To == "PaperPresentation" {
			found = &s.Edges[i]
		}
	}
	if found == nil {
		t.Fatal("YearPage → PaperPresentation schema edge missing")
	}
	if found.WhereID != "Q1∧Q3" {
		t.Errorf("WhereID = %s, want Q1∧Q3", found.WhereID)
	}
	if found.Label.Lit != "Paper" || len(found.FromArgs) != 1 || found.FromArgs[0] != "y" ||
		len(found.ToArgs) != 1 || found.ToArgs[0] != "x" {
		t.Errorf("edge = %+v", *found)
	}
	if len(found.Where) != 2 {
		t.Errorf("conjunction size = %d, want 2 (Q1 ∧ Q3)", len(found.Where))
	}
}

func TestSchemaEdgesToNS(t *testing.T) {
	s := fig7Schema(t)
	// Attribute-copy links (arc variable v target) and leaf links (Year,
	// Category atoms) go to the NS node.
	nsCount := 0
	for _, e := range s.Edges {
		if e.To == NS {
			nsCount++
		}
	}
	if nsCount != 4 { // 2 attribute copies + Year leaf + Category leaf
		t.Errorf("NS edges = %d, want 4", nsCount)
	}
}

func TestSchemaArcVariableLabel(t *testing.T) {
	s := fig7Schema(t)
	var found bool
	for _, e := range s.Edges {
		if e.From == "AbstractPage" && e.To == NS && e.Label.IsVar && e.Label.Var == "l" {
			found = true
		}
	}
	if !found {
		t.Error("arc-variable schema edge (AbstractPage -l-> NS) missing")
	}
}

func TestSchemaCreations(t *testing.T) {
	s := fig7Schema(t)
	cs := s.CreationsOf("YearPage")
	if len(cs) != 1 {
		t.Fatalf("YearPage creations = %d", len(cs))
	}
	if cs[0].WhereID != "Q1∧Q3" || len(cs[0].Args) != 1 || cs[0].Args[0] != "y" {
		t.Errorf("creation = %+v", cs[0])
	}
	// RootPage is created unconditionally and also implicitly by link
	// clauses in nested contexts; the unconditional context must be there.
	root := s.CreationsOf("RootPage")
	var unconditional bool
	for _, c := range root {
		if c.WhereID == "true" {
			unconditional = true
		}
	}
	if !unconditional {
		t.Errorf("RootPage lacks unconditional creation: %+v", root)
	}
}

func TestSchemaStringAndDot(t *testing.T) {
	s := fig7Schema(t)
	str := s.String()
	for _, frag := range []string{
		"YearPage -> PaperPresentation (Q1∧Q3, \"Paper\", [y], [x])",
		"legend:",
		"Q1: where Publications(x)",
	} {
		if !strings.Contains(str, frag) {
			t.Errorf("String() missing %q:\n%s", frag, str)
		}
	}
	dot := s.Dot("fig7", true)
	if strings.Contains(dot, `"NS"`) {
		t.Error("Dot with skipNS should exclude NS, as Fig. 7 does")
	}
	dotFull := s.Dot("fig7", false)
	if !strings.Contains(dotFull, `"NS"`) {
		t.Error("full Dot should include NS")
	}
}

func TestSchemaOutEdges(t *testing.T) {
	s := fig7Schema(t)
	out := s.OutEdges("RootPage")
	if len(out) != 3 { // Abstracts, YearPage, CategoryPage
		t.Errorf("RootPage out edges = %d, want 3", len(out))
	}
	if len(s.OutEdges("NoSuch")) != 0 {
		t.Error("unknown node should have no edges")
	}
}

func fig2Graph() *graph.Graph {
	g := graph.New()
	g.AddToCollection("Publications", "pub1")
	g.AddToCollection("Publications", "pub2")
	g.AddEdge("pub1", "title", graph.NewString("T1"))
	g.AddEdge("pub1", "year", graph.NewInt(1997))
	g.AddEdge("pub1", "category", graph.NewString("web"))
	g.AddEdge("pub2", "title", graph.NewString("T2"))
	g.AddEdge("pub2", "year", graph.NewInt(1998))
	g.AddEdge("pub2", "category", graph.NewString("web"))
	return g
}

func TestRecoverQueryIsEquivalent(t *testing.T) {
	// §2.5: "The site schema is equivalent to the original query, i.e.,
	// we can recover the query from the site schema."
	orig := struql.MustParse(fig3Query)
	rec := Build(orig).RecoverQuery()
	src := fig2Graph()
	r1, err := struql.Eval(orig, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := struql.Eval(rec, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Graph.Dump() != r2.Graph.Dump() {
		t.Errorf("recovered query differs:\n--- original\n%s--- recovered\n%s", r1.Graph.Dump(), r2.Graph.Dump())
	}
}

func TestRecoverQueryWithCollect(t *testing.T) {
	q := struql.MustParse(`where Publications(x) create P(x) collect Pages(P(x)), Raw(x)`)
	rec := Build(q).RecoverQuery()
	src := fig2Graph()
	r1, _ := struql.Eval(q, src, nil)
	r2, err := struql.Eval(rec, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Graph.Dump() != r2.Graph.Dump() {
		t.Errorf("collect recovery differs:\n%s\nvs\n%s", r1.Graph.Dump(), r2.Graph.Dump())
	}
}

func TestRecoverQueryConstantTargets(t *testing.T) {
	q := struql.MustParse(`where Publications(x) create P(x) link P(x) -> "kind" -> "paper", P(x) -> "n" -> 7`)
	rec := Build(q).RecoverQuery()
	src := fig2Graph()
	r1, _ := struql.Eval(q, src, nil)
	r2, err := struql.Eval(rec, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Graph.Dump() != r2.Graph.Dump() {
		t.Errorf("constant recovery differs:\n%s\nvs\n%s", r1.Graph.Dump(), r2.Graph.Dump())
	}
}

func TestSchemaHasNode(t *testing.T) {
	s := fig7Schema(t)
	if !s.HasNode("RootPage") || s.HasNode("Nope") {
		t.Error("HasNode wrong")
	}
}

func TestSchemaOfMultiBlockQuery(t *testing.T) {
	// Queries assembled from separately written fragments (§2.2) produce
	// one schema covering all blocks.
	q := struql.MustParse(`
where People(p) create Home(p) link Home(p) -> "name" -> p
where Projects(j) create Proj(j) link Proj(j) -> "title" -> j
where People(p), p -> "works" -> j create X() link Home(p) -> "proj" -> Proj(j)
`)
	s := Build(q)
	if !s.HasNode("Home") || !s.HasNode("Proj") {
		t.Error("multi-block schema missing nodes")
	}
	var cross bool
	for _, e := range s.Edges {
		if e.From == "Home" && e.To == "Proj" && e.Label.Lit == "proj" {
			cross = true
		}
	}
	if !cross {
		t.Error("cross-fragment edge missing")
	}
}
