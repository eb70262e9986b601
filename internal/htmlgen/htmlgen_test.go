package htmlgen

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"strudel/internal/graph"
	"strudel/internal/struql"
	"strudel/internal/template"
)

const fig3Query = `
create RootPage(), AbstractsPage()
link RootPage() -> "Abstracts" -> AbstractsPage(),
     RootPage() -> "title" -> "My Home Page"

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
`

// fig6Templates reconstructs the Fig. 6 template set.
func fig6Templates(t *testing.T) *template.Set {
	t.Helper()
	ts := template.NewSet()
	ts.MustAdd("RootPage", `<HTML><HEAD><TITLE><SFMT title></TITLE></HEAD><BODY>
<H1><SFMT title></H1>
<P>All <SFMT Abstracts TEXT=none>.</P>
<H2>Papers by year</H2>
<SFMT YearPage UL ORDER=ascend KEY=Year>
</BODY></HTML>`)
	ts.MustAdd("AbstractsPage", `<HTML><BODY><H1>Abstracts</H1>
<SFMT Abstract EMBED UL>
</BODY></HTML>`)
	ts.MustAdd("AbstractPage", `<H3><SFMT title></H3><P>by <SFMT author ENUM DELIM=", "></P>`)
	ts.MustAdd("YearPage", `<HTML><BODY><H1>Papers from <SFMT Year></H1>
<SFMT Paper UL>
</BODY></HTML>`)
	ts.MustAdd("PaperPresentation", `<HTML><BODY><B><SFMT title></B> by <SFMT author ENUM DELIM=", ">
(<SFMT year>)<SIF journal> In <SFMT journal>.</SIF>
<P><SFMT Abstract></P></BODY></HTML>`)
	return ts
}

func fig2Data() *graph.Graph {
	g := graph.New()
	g.AddToCollection("Publications", "pub1")
	g.AddToCollection("Publications", "pub2")
	g.AddEdge("pub1", "title", graph.NewString("A Query Language"))
	g.AddEdge("pub1", "author", graph.NewString("Fernandez"))
	g.AddEdge("pub1", "author", graph.NewString("Florescu"))
	g.AddEdge("pub1", "year", graph.NewInt(1997))
	g.AddEdge("pub1", "journal", graph.NewString("SIGMOD Record"))
	g.AddEdge("pub2", "title", graph.NewString("Catching the Boat"))
	g.AddEdge("pub2", "author", graph.NewString("Fernandez"))
	g.AddEdge("pub2", "year", graph.NewInt(1998))
	return g
}

func buildSiteGraph(t *testing.T) *graph.Graph {
	t.Helper()
	r, err := struql.Eval(struql.MustParse(fig3Query), fig2Data(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return r.Graph
}

func generatorFor(t *testing.T) (*Generator, *graph.Graph) {
	t.Helper()
	site := buildSiteGraph(t)
	g := New(site, fig6Templates(t))
	g.PerObject["RootPage()"] = "RootPage"
	g.PerObject["AbstractsPage()"] = "AbstractsPage"
	for _, oid := range site.Nodes() {
		s := string(oid)
		switch {
		case strings.HasPrefix(s, "AbstractPage("):
			g.PerObject[oid] = "AbstractPage"
		case strings.HasPrefix(s, "PaperPresentation("):
			g.PerObject[oid] = "PaperPresentation"
		case strings.HasPrefix(s, "YearPage("):
			g.PerObject[oid] = "YearPage"
		}
	}
	return g, site
}

func TestGenerateFig6Site(t *testing.T) {
	g, _ := generatorFixture(t)
	out, err := g.Generate([]graph.OID{"RootPage()"})
	if err != nil {
		t.Fatal(err)
	}
	// Root page is index.html.
	root, ok := out.Pages["index.html"]
	if !ok {
		t.Fatalf("index.html missing; pages: %v", out.SortedPageNames())
	}
	if !strings.Contains(root, "<H1>My Home Page</H1>") {
		t.Errorf("root page content:\n%s", root)
	}
	// Year pages sorted ascending: 1997 before 1998.
	if !(strings.Index(root, "YearPage_1997_") < strings.Index(root, "YearPage_1998_")) {
		t.Errorf("year order wrong:\n%s", root)
	}
	// Year page realized as its own page, linking paper presentations.
	ypName := out.PageFiles["YearPage(1997)"]
	yp := out.Pages[ypName]
	if !strings.Contains(yp, "Papers from 1997") {
		t.Errorf("year page:\n%s", yp)
	}
	if !strings.Contains(yp, `<a href="`+out.PageFiles["PaperPresentation(pub1)"]+`"`) {
		t.Errorf("year page should link pub1 presentation:\n%s", yp)
	}
	// Paper presentation: authors enumerated, journal conditional.
	pp1 := out.Pages[out.PageFiles["PaperPresentation(pub1)"]]
	if !strings.Contains(pp1, "Fernandez, Florescu") || !strings.Contains(pp1, "In SIGMOD Record.") {
		t.Errorf("pp1:\n%s", pp1)
	}
	pp2 := out.Pages[out.PageFiles["PaperPresentation(pub2)"]]
	if strings.Contains(pp2, "In ") && strings.Contains(pp2, "SIGMOD Record") {
		t.Errorf("pp2 should have no journal:\n%s", pp2)
	}
}

// generatorFixture is a renamed helper to avoid the typo'd name above.
func generatorFixture(t *testing.T) (*Generator, *graph.Graph) { return generatorFor(t) }

func TestEmbedVsPageRealization(t *testing.T) {
	// §2.4: when referenced from PaperPresentation, an AbstractPage is a
	// separate page; when referenced from AbstractsPage with EMBED, the
	// same object is embedded. Both happen in one site.
	g, _ := generatorFixture(t)
	out, err := g.Generate([]graph.OID{"RootPage()"})
	if err != nil {
		t.Fatal(err)
	}
	absName := out.PageFiles["AbstractsPage()"]
	abs := out.Pages[absName]
	// Embedded abstract content appears inline in the abstracts page.
	if !strings.Contains(abs, "<H3>A Query Language</H3>") {
		t.Errorf("abstracts page should embed abstract content:\n%s", abs)
	}
	// And the AbstractPage objects are ALSO realized as pages, because
	// PaperPresentation references them without EMBED.
	apName, ok := out.PageFiles["AbstractPage(pub1)"]
	if !ok {
		t.Fatal("AbstractPage(pub1) should be realized as a page")
	}
	if !strings.Contains(out.Pages[apName], "<H3>A Query Language</H3>") {
		t.Errorf("abstract page content:\n%s", out.Pages[apName])
	}
}

func TestTemplateSelectionRules(t *testing.T) {
	site := graph.New()
	site.AddToCollection("People", "p1")
	site.AddToCollection("People", "p2")
	site.AddNode("p3")
	site.AddNode("p4")
	site.AddEdge("p1", "name", graph.NewString("Alice"))
	site.AddEdge("p2", "name", graph.NewString("Bob"))
	site.AddEdge("p3", "name", graph.NewString("Carol"))
	site.AddEdge("p3", "HTML-template", graph.NewString("special"))
	site.AddEdge("p4", "name", graph.NewString("Dave"))
	ts := template.NewSet()
	ts.MustAdd("person", `person:<SFMT name>`)
	ts.MustAdd("special", `special:<SFMT name>`)
	ts.MustAdd("object", `object:<SFMT name>`)
	g := New(site, ts)
	g.PerObject["p1"] = "object"         // rule 1 beats rule 3
	g.PerCollection["People"] = "person" // rule 3
	out, err := g.Generate([]graph.OID{"p1", "p2", "p3", "p4"})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Pages["index.html"]; got != "object:Alice" {
		t.Errorf("rule 1 (object-specific): %q", got)
	}
	if got := out.Pages[out.PageFiles["p2"]]; got != "person:Bob" {
		t.Errorf("rule 3 (collection): %q", got)
	}
	if got := out.Pages[out.PageFiles["p3"]]; got != "special:Carol" {
		t.Errorf("rule 2 (HTML-template attribute): %q", got)
	}
	// p4 falls back to the built-in attribute listing.
	if got := out.Pages[out.PageFiles["p4"]]; !strings.Contains(got, "<dt>name</dt><dd>Dave</dd>") {
		t.Errorf("builtin fallback: %q", got)
	}
}

func TestDefaultTemplateOption(t *testing.T) {
	site := graph.New()
	site.AddEdge("x", "name", graph.NewString("X"))
	ts := template.NewSet()
	ts.MustAdd("dflt", `default:<SFMT name>`)
	g := New(site, ts)
	g.Default = "dflt"
	out, err := g.Generate([]graph.OID{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Pages["index.html"] != "default:X" {
		t.Errorf("got %q", out.Pages["index.html"])
	}
}

func TestEmbedCycleFallsBackToRef(t *testing.T) {
	site := graph.New()
	site.AddEdge("a", "other", graph.NewNode("b"))
	site.AddEdge("b", "other", graph.NewNode("a"))
	site.AddEdge("a", "name", graph.NewString("A"))
	site.AddEdge("b", "name", graph.NewString("B"))
	ts := template.NewSet()
	ts.MustAdd("t", `[<SFMT name>:<SFMT other EMBED>]`)
	g := New(site, ts)
	g.PerObject["a"] = "t"
	g.PerObject["b"] = "t"
	out, err := g.Generate([]graph.OID{"a"})
	if err != nil {
		t.Fatal(err)
	}
	root := out.Pages["index.html"]
	if !strings.Contains(root, "[A:[B:<a href=") {
		t.Errorf("cycle should degrade to a link:\n%s", root)
	}
}

func TestFileRendering(t *testing.T) {
	dir := t.TempDir()
	txt := filepath.Join(dir, "abs.txt")
	if err := os.WriteFile(txt, []byte("the <abstract> text"), 0o644); err != nil {
		t.Fatal(err)
	}
	site := graph.New()
	site.AddEdge("n", "abstract", graph.NewFile(graph.FileText, txt))
	site.AddEdge("n", "photo", graph.NewFile(graph.FileImage, "p.gif"))
	site.AddEdge("n", "paper", graph.NewFile(graph.FilePostScript, "p.ps"))
	ts := template.NewSet()
	ts.MustAdd("t", `<SFMT abstract EMBED>|<SFMT photo>|<SFMT paper>`)
	g := New(site, ts)
	g.PerObject["n"] = "t"
	out, err := g.Generate([]graph.OID{"n"})
	if err != nil {
		t.Fatal(err)
	}
	got := out.Pages["index.html"]
	if !strings.Contains(got, "the &lt;abstract&gt; text") {
		t.Errorf("embedded text file: %q", got)
	}
	if !strings.Contains(got, `<img src="p.gif">`) {
		t.Errorf("image tag: %q", got)
	}
	if !strings.Contains(got, `<a href="p.ps">`) {
		t.Errorf("postscript link: %q", got)
	}
}

func TestMissingEmbeddedFile(t *testing.T) {
	site := graph.New()
	site.AddEdge("n", "a", graph.NewFile(graph.FileText, "/nonexistent/file.txt"))
	ts := template.NewSet()
	ts.MustAdd("t", `<SFMT a EMBED>`)
	g := New(site, ts)
	g.PerObject["n"] = "t"
	out, err := g.Generate([]graph.OID{"n"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Pages["index.html"], "<!-- missing file") {
		t.Errorf("got %q", out.Pages["index.html"])
	}
}

func TestWriteDir(t *testing.T) {
	g, _ := generatorFixture(t)
	out, err := g.Generate([]graph.OID{"RootPage()"})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := out.WriteDir(filepath.Join(dir, "site")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "site", "index.html"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "My Home Page") {
		t.Error("written index.html wrong")
	}
	entries, _ := os.ReadDir(filepath.Join(dir, "site"))
	if len(entries) != out.PageCount() {
		t.Errorf("wrote %d files, want %d", len(entries), out.PageCount())
	}
}

func TestUnknownRootFails(t *testing.T) {
	g := New(graph.New(), template.NewSet())
	if _, err := g.Generate([]graph.OID{"ghost"}); err == nil {
		t.Error("unknown root should fail")
	}
}

func TestFileNameCollisions(t *testing.T) {
	site := graph.New()
	// Two oids that sanitize identically.
	site.AddEdge("a/b", "x", graph.NewNode("a.b"))
	site.AddEdge("a.b", "v", graph.NewString("second"))
	ts := template.NewSet()
	g := New(site, ts)
	out, err := g.Generate([]graph.OID{"a/b", "a.b"})
	if err != nil {
		t.Fatal(err)
	}
	if out.PageFiles["a/b"] == out.PageFiles["a.b"] {
		t.Errorf("collision not resolved: %v", out.PageFiles)
	}
	if out.PageCount() != 2 {
		t.Errorf("pages = %d, want 2", out.PageCount())
	}
}

func TestDeterministicOutput(t *testing.T) {
	g1, _ := generatorFixture(t)
	out1, err := g1.Generate([]graph.OID{"RootPage()"})
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := generatorFixture(t)
	out2, err := g2.Generate([]graph.OID{"RootPage()"})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(out1.SortedPageNames()) != fmt.Sprint(out2.SortedPageNames()) {
		t.Error("page names differ between runs")
	}
	for name := range out1.Pages {
		if out1.Pages[name] != out2.Pages[name] {
			t.Errorf("page %s differs between runs", name)
		}
	}
}
