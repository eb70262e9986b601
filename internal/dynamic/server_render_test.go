package dynamic

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"strudel/internal/graph"
	"strudel/internal/schema"
	"strudel/internal/struql"
	"strudel/internal/template"
)

// embedQuery builds pages that embed other dynamic pages, reference
// data-graph objects, and carry file attributes — exercising the server's
// renderer paths.
const embedQuery = `
create Root()
link Root() -> "title" -> "Dyn"

where Items(x)
create Card(x)
link Root() -> "Card" -> Card(x),
     Card(x) -> "self" -> x
{
  where x -> "name" -> n
  link Card(x) -> "name" -> n
}
{
  where x -> "pic" -> p
  link Card(x) -> "pic" -> p
}
`

func embedData() *graph.Graph {
	g := graph.New()
	g.AddToCollection("Items", "i1")
	g.AddEdge("i1", "name", graph.NewString("First"))
	g.AddEdge("i1", "pic", graph.NewFile(graph.FileImage, "p.gif"))
	g.AddEdge("i1", "doc", graph.NewFile(graph.FilePostScript, "d.ps"))
	return g
}

// testURL is the link function the package's render tests build their
// renderers with: the page's Skolem function name is enough to see where
// a link points, without the fleet's page-key encoding.
func testURL(ref PageRef) string { return "/" + ref.Fn }

func TestServerEmbedsDynamicPages(t *testing.T) {
	q := struql.MustParse(embedQuery)
	ev := NewEvaluator(schema.Build(q), embedData())
	ts := template.NewSet()
	ts.MustAdd("header", `<i>dyn</i>`)
	ts.MustAdd("Root", `<SINCLUDE header><h1><SFMT title></h1><SFMT Card EMBED UL>`)
	ts.MustAdd("Card", `[<SFMT name>|<SFMT pic>|<SFMT self EMBED>]`)
	srv := NewRenderer(ev, ts, testURL)
	srv.PerFn["Root"] = "Root"
	srv.PerFn["Card"] = "Card"
	out, err := srv.RenderPage(PageRef{Fn: "Root"})
	if err != nil {
		t.Fatal(err)
	}
	// SINCLUDE resolved.
	if !strings.Contains(out, "<i>dyn</i>") {
		t.Errorf("include missing:\n%s", out)
	}
	// Embedded dynamic Card page rendered inline.
	if !strings.Contains(out, "[First|") {
		t.Errorf("embedded card missing:\n%s", out)
	}
	// File atom rendered as an img tag.
	if !strings.Contains(out, `<img src="p.gif">`) {
		t.Errorf("image missing:\n%s", out)
	}
	// Embedded data-graph object (self) rendered as attribute dump,
	// including the postscript link path.
	if !strings.Contains(out, "name: First") {
		t.Errorf("data-object embed missing:\n%s", out)
	}
}

func TestServerEmbedWithoutTemplateUsesListing(t *testing.T) {
	q := struql.MustParse(embedQuery)
	ev := NewEvaluator(schema.Build(q), embedData())
	ts := template.NewSet()
	ts.MustAdd("Root", `<SFMT Card EMBED>`)
	srv := NewRenderer(ev, ts, testURL)
	srv.PerFn["Root"] = "Root"
	out, err := srv.RenderPage(PageRef{Fn: "Root"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "<dt>name</dt><dd>First</dd>") {
		t.Errorf("default listing for embedded page missing:\n%s", out)
	}
}

// TestReferencesLinkOnlyPages pins RenderRef: a page links through the
// renderer's link function; a data-graph object, which no server
// resolves as a page, renders as its anchor text alone.
func TestReferencesLinkOnlyPages(t *testing.T) {
	q := struql.MustParse(embedQuery)
	ev := NewEvaluator(schema.Build(q), embedData())
	ts := template.NewSet()
	ts.MustAdd("Root", `<SFMT Card>`)
	ts.MustAdd("Card", `<SFMT self>`)
	srv := NewRenderer(ev, ts, testURL)
	srv.PerFn["Root"] = "Root"
	srv.PerFn["Card"] = "Card"
	root, err := srv.RenderPage(PageRef{Fn: "Root"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(root, `<a href="/Card">`) {
		t.Errorf("page reference is not a link: %q", root)
	}
	card, err := srv.RenderPage(PageRef{Fn: "Card", Args: []graph.Value{graph.NewNode("i1")}})
	if err != nil {
		t.Fatal(err)
	}
	if card != "First" {
		t.Errorf("data-object reference = %q, want its anchor text without a link", card)
	}
}

// cancelSource cancels a render's context on its first access once
// armed: the request is cancelled, or its attempt times out, or its
// replica is killed, while the render reads a page it has not computed.
type cancelSource struct {
	struql.Source
	cancel context.CancelFunc
	armed  atomic.Bool
}

func (c *cancelSource) trip() {
	if c.armed.CompareAndSwap(true, false) {
		c.cancel()
	}
}

func (c *cancelSource) Collection(name string) []graph.OID {
	c.trip()
	return c.Source.Collection(name)
}

func (c *cancelSource) Out(oid graph.OID) []graph.Edge {
	c.trip()
	return c.Source.Out(oid)
}

// TestNeighbourReadErrorFailsRender pins that a page whose render
// cannot read a neighbour page fails instead of rendering the template's
// fallback: Root is cached, and the request dies while Root's link to
// Card(i1) computes Card(i1) for its anchor text. The render must return
// the error, never "Card(i1)" where "First" belongs.
func TestNeighbourReadErrorFailsRender(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancelSource{Source: embedData(), cancel: cancel}
	ev := NewEvaluator(schema.Build(struql.MustParse(embedQuery)), src)
	ts := template.NewSet()
	ts.MustAdd("Root", `<SFMT Card>`)
	srv := NewRenderer(ev, ts, testURL)
	srv.PerFn["Root"] = "Root"
	root := PageRef{Fn: "Root"}
	if _, err := ev.Page(root); err != nil {
		t.Fatal(err)
	}

	src.armed.Store(true)
	body, _, err := srv.RenderPageGen(ctx, root)
	if err == nil || body != "" {
		t.Fatalf("render cancelled during a neighbour read = %q, %v; want an error and no body", body, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want the request's cancellation", err)
	}

	// The cancelled read cached nothing: a live request renders the page.
	body, _, err = srv.RenderPageGen(context.Background(), root)
	if err != nil || !strings.Contains(body, ">First<") {
		t.Fatalf("render after the cancelled one = %q, %v; want the Card link with its name", body, err)
	}
}

func TestServerRenderFilePostScript(t *testing.T) {
	r := &dynRenderer{}
	out, err := r.RenderFile(graph.NewFile(graph.FilePostScript, "x.ps"), false)
	if err != nil || !strings.Contains(out, `<a href="x.ps">`) {
		t.Errorf("out = %q, err = %v", out, err)
	}
}

func TestPathDepsVariants(t *testing.T) {
	set := map[string]bool{}
	pathDeps(struql.MustParsePathExpr(`("a"|"b")."c"*`), set)
	if !set["label:a"] || !set["label:b"] || !set["label:c"] {
		t.Errorf("deps = %v", set)
	}
	set2 := map[string]bool{}
	pathDeps(struql.MustParsePathExpr(`~"x.*"`), set2)
	if !set2["*"] {
		t.Errorf("regex pred should be *, got %v", set2)
	}
	set3 := map[string]bool{}
	pathDeps(struql.MustParsePathExpr(`_`), set3)
	if !set3["*"] {
		t.Errorf("any pred should be *, got %v", set3)
	}
}
