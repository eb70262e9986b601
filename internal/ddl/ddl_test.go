package ddl

import (
	"strings"
	"testing"
	"testing/quick"

	"strudel/internal/graph"
)

const sample = `
# Homepage data in Strudel's data-definition language.
collection Publications;
directive Publications { abstract: text; postscript: postscript; home: url; }

node pub1 in Publications {
    title  "A Query Language for a Web-Site Management System";
    year   1997;
    month  "September";
    author "Fernandez";
    author "Florescu";
    abstract "abstracts/pub1.txt";
    postscript "ps/pub1.ps";
    related &pub2;
}

node pub2 in Publications {
    title "Catching the Boat with Strudel";
    year  1998;
    booktitle "SIGMOD";
    score 4.5;
    selected true;
    home url("http://www.research.att.com");
}

collection Recent;
member Recent pub2;
edge pub1 cites &pub2;
`

func TestParseSample(t *testing.T) {
	doc, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	g := doc.Graph
	if g.NumNodes() != 2 {
		t.Errorf("NumNodes = %d, want 2", g.NumNodes())
	}
	if !g.InCollection("Publications", "pub1") || !g.InCollection("Recent", "pub2") {
		t.Error("collection memberships missing")
	}
	if v := g.First("pub1", "year"); v.Kind() != graph.KindInt || v.Int() != 1997 {
		t.Errorf("year = %v", v)
	}
	if v := g.First("pub2", "score"); v.Kind() != graph.KindFloat || v.Float() != 4.5 {
		t.Errorf("score = %v", v)
	}
	if v := g.First("pub2", "selected"); v.Kind() != graph.KindBool || !v.Bool() {
		t.Errorf("selected = %v", v)
	}
	if v := g.First("pub1", "related"); !v.IsNode() || v.OID() != "pub2" {
		t.Errorf("related = %v", v)
	}
	if !g.HasEdge("pub1", "cites", graph.NewNode("pub2")) {
		t.Error("edge statement not applied")
	}
}

func TestDirectiveCoercion(t *testing.T) {
	doc := MustParse(sample)
	g := doc.Graph
	// abstract was a plain string; the directive coerces it to a text file.
	if v := g.First("pub1", "abstract"); v.Kind() != graph.KindFile || v.FileType() != graph.FileText {
		t.Errorf("abstract = %v, want text file", v)
	}
	if v := g.First("pub1", "postscript"); v.Kind() != graph.KindFile || v.FileType() != graph.FilePostScript {
		t.Errorf("postscript = %v, want postscript file", v)
	}
	// pub2's home used an explicit url(...), which also works.
	if v := g.First("pub2", "home"); v.Kind() != graph.KindURL {
		t.Errorf("home = %v, want url", v)
	}
	// title has no directive: stays a string.
	if v := g.First("pub1", "title"); v.Kind() != graph.KindString {
		t.Errorf("title = %v, want string", v)
	}
}

func TestDirectiveIsDefaultNotConstraint(t *testing.T) {
	// Paper: "These directives are not constraints and can be overridden
	// in the input file." An explicit type wins over the directive.
	doc := MustParse(`
collection C;
directive C { doc: postscript; }
node n in C { doc html("index.html"); }
`)
	if v := doc.Graph.First("n", "doc"); v.FileType() != graph.FileHTML {
		t.Errorf("doc = %v, want explicit html type", v)
	}
}

func TestDirectiveOnlyAppliesToMembers(t *testing.T) {
	doc := MustParse(`
collection C;
directive C { a: text; }
node outside { a "plain"; }
`)
	if v := doc.Graph.First("outside", "a"); v.Kind() != graph.KindString {
		t.Errorf("non-member value = %v, want plain string", v)
	}
}

func TestStringEscapes(t *testing.T) {
	doc := MustParse(`node n { s "a\"b\\c\nd\te"; }`)
	want := "a\"b\\c\nd\te"
	if v := doc.Graph.First("n", "s"); v.Str() != want {
		t.Errorf("s = %q, want %q", v.Str(), want)
	}
}

func TestNegativeAndFloatNumbers(t *testing.T) {
	doc := MustParse(`node n { i -42; f -1.25; }`)
	if v := doc.Graph.First("n", "i"); v.Int() != -42 {
		t.Errorf("i = %v", v)
	}
	if v := doc.Graph.First("n", "f"); v.Float() != -1.25 {
		t.Errorf("f = %v", v)
	}
}

func TestMultipleCollectionsInNodeHeader(t *testing.T) {
	doc := MustParse(`node n in A, B { x 1; }`)
	g := doc.Graph
	if !g.InCollection("A", "n") || !g.InCollection("B", "n") {
		t.Error("node should be in both A and B")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src, wantFrag string
	}{
		{`bogus stuff;`, "unknown statement"},
		{`node n { attr }`, "expected value"},
		{`node n { attr 1 }`, "expected ';'"},
		{`collection ;`, "collection name"},
		{`directive C { a: nosuch; }`, "unknown directive type"},
		{`node n { s "unterminated; }`, "expected"},
		{`edge a b;`, "expected value"},
		{`member C;`, "node oid"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q): want error containing %q, got nil", c.src, c.wantFrag)
			continue
		}
		if !strings.Contains(err.Error(), c.wantFrag) {
			t.Errorf("Parse(%q): error %q, want fragment %q", c.src, err, c.wantFrag)
		}
	}
}

func TestErrorsCarryLineNumbers(t *testing.T) {
	_, err := Parse("collection A;\ncollection B;\nbroken here;")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error = %v, want line 3", err)
	}
}

func TestCommentsIgnored(t *testing.T) {
	doc := MustParse("# top\nnode n { # inline is not supported mid-stmt but full lines are\nx 1; }\n# tail")
	if doc.Graph.First("n", "x").Int() != 1 {
		t.Error("comment handling broke parsing")
	}
}

func TestPrintRoundTrip(t *testing.T) {
	doc := MustParse(sample)
	printed := Print(doc.Graph)
	doc2, err := Parse(printed)
	if err != nil {
		t.Fatalf("re-parse failed: %v\nprinted:\n%s", err, printed)
	}
	if doc.Graph.Dump() != doc2.Graph.Dump() {
		t.Errorf("round trip changed graph:\n--- first\n%s--- second\n%s", doc.Graph.Dump(), doc2.Graph.Dump())
	}
}

func TestPrintRoundTripProperty(t *testing.T) {
	// Any small graph survives Print→Parse unchanged.
	f := func(n uint8, hasColl bool) bool {
		g := graph.New()
		size := int(n%12) + 1
		for i := 0; i < size; i++ {
			oid := graph.OID(string(rune('a' + i%26)))
			g.AddEdge(oid, "num", graph.NewInt(int64(i)))
			g.AddEdge(oid, "txt", graph.NewString(strings.Repeat("x", i%4)))
			if i%3 == 0 {
				g.AddEdge(oid, "ref", graph.NewNode("a"))
			}
			if hasColl {
				g.AddToCollection("C", oid)
			}
		}
		doc, err := Parse(Print(g))
		if err != nil {
			return false
		}
		return doc.Graph.Dump() == g.Dump()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestIdentifiersWithPathChars(t *testing.T) {
	doc := MustParse(`node people/23 { HTML-template "person.tmpl"; }`)
	if doc.Graph.First("people/23", "HTML-template").Str() != "person.tmpl" {
		t.Error("path-like oid or dashed attribute failed to parse")
	}
}

func TestDirectivesLabels(t *testing.T) {
	doc := MustParse(sample)
	labels := doc.Directives.Labels("Publications")
	want := []string{"abstract", "home", "postscript"}
	if len(labels) != len(want) {
		t.Fatalf("Labels = %v, want %v", labels, want)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("Labels = %v, want %v", labels, want)
		}
	}
	if doc.Directives.Labels("NoSuch") != nil {
		t.Error("unknown collection should have nil labels")
	}
}

// TestPrintSnapshotMatchesGraph pins Print's exact text for a map graph
// (collections first, then nodes with their sorted memberships) and that
// the graph's frozen snapshot prints the same bytes.
func TestPrintSnapshotMatchesGraph(t *testing.T) {
	g := graph.New()
	g.AddToCollection("B", "n1")
	g.AddToCollection("A", "n1")
	g.AddToCollection("A", "n0")
	g.DeclareCollection("Empty")
	g.AddEdge("n1", "title", graph.NewString("Strudel"))
	g.AddEdge("n1", "year", graph.NewInt(1998))
	g.AddEdge("n0", "next", graph.NewNode("n1"))
	g.AddNode("lonely")
	want := `collection A;
collection B;
collection Empty;
node lonely {
}
node n0 in A {
    next &n1;
}
node n1 in A, B {
    title "Strudel";
    year 1998;
}
`
	if got := Print(g); got != want {
		t.Errorf("Print(graph):\n%s\nwant:\n%s", got, want)
	}
	if got := Print(g.Freeze()); got != want {
		t.Errorf("Print(snapshot):\n%s\nwant:\n%s", got, want)
	}
}
