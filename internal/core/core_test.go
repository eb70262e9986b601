package core

import (
	"strings"
	"testing"

	"strudel/internal/graph"
	"strudel/internal/struql"
)

func TestBuildPipeline(t *testing.T) {
	data := graph.New()
	data.AddToCollection("Publications", "pub1")
	data.AddEdge("pub1", "title", graph.NewString("Strudel"))
	spec := &Spec{
		Name:    "mini",
		Sources: nil,
		Versions: []Version{{
			Name:    "main",
			Queries: []string{`create Root() link Root() -> "title" -> "Home"`},
			Roots:   []string{"Root()"},
		}},
	}
	spec.Sources = append(spec.Sources, StaticSource("inline", data))
	res, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	vr := res.Versions["main"]
	if vr == nil || vr.Output.PageCount() != 1 {
		t.Fatalf("result = %+v", vr)
	}
	if !strings.Contains(vr.Output.Pages["index.html"], "Home") {
		t.Errorf("index:\n%s", vr.Output.Pages["index.html"])
	}
	if res.Data.NumEdges() != 1 {
		t.Error("data graph should hold the source edge")
	}
}

func TestBuildVersionStatsAndChecks(t *testing.T) {
	data := graph.New()
	data.AddToCollection("Publications", "pub1")
	data.AddEdge("pub1", "title", graph.NewString("Strudel"))
	data.AddToCollection("Publications", "pub2")
	data.AddEdge("pub2", "title", graph.NewString("Boat"))
	v := &Version{
		Name: "main",
		Queries: []string{`
create Root()
link Root() -> "title" -> "Pubs"
where Publications(x)
create Page(x)
link Root() -> "pub" -> Page(x)
{
  where x -> "title" -> t
  link Page(x) -> "title" -> t
}
`},
		Templates: map[string]string{
			"Root": `<h1><SFMT title></h1>
<SFMT pub UL>`,
			"Page": `<b><SFMT title></b>`,
		},
		PerObject:              map[string]string{"Root()": "Root"},
		ObjectTemplatePrefixes: map[string]string{"Page(": "Page"},
		Roots:                  []string{"Root()"},
		Constraints: []string{
			`connected from Root`,
			`every Page has "title"`,
		},
	}
	vr, err := BuildVersion(v, data)
	if err != nil {
		t.Fatal(err)
	}
	if !vr.ChecksPass {
		t.Errorf("checks = %+v", vr.Checks)
	}
	st := vr.Stats
	if st.QueryLines != 9 {
		t.Errorf("QueryLines = %d, want 9", st.QueryLines)
	}
	if st.LinkClauses != 3 {
		t.Errorf("LinkClauses = %d, want 3", st.LinkClauses)
	}
	if st.Templates != 2 || st.TemplateLines != 3 {
		t.Errorf("templates = %d/%d, want 2/3", st.Templates, st.TemplateLines)
	}
	if st.Pages != 3 { // Root + 2 Pages
		t.Errorf("Pages = %d, want 3", st.Pages)
	}
	if !strings.Contains(st.String(), "link clauses") {
		t.Error("stats string")
	}
	if vr.Schema == nil || !vr.Schema.HasNode("Page") {
		t.Error("schema missing")
	}
}

func TestConstraintViolationReported(t *testing.T) {
	data := graph.New()
	data.AddToCollection("Publications", "pub1")
	v := &Version{
		Name:        "main",
		Queries:     []string{`create Root() where Publications(x) create Orphan(x)`},
		Roots:       []string{"Root()"},
		Constraints: []string{`connected from Root`},
	}
	vr, err := BuildVersion(v, data)
	if err != nil {
		t.Fatal(err)
	}
	if vr.ChecksPass {
		t.Error("orphan should violate connectivity")
	}
}

func TestBuildErrors(t *testing.T) {
	data := graph.New()
	cases := []Version{
		{Name: "badquery", Queries: []string{`where`}},
		{Name: "badtemplate", Queries: []string{`create R()`}, Templates: map[string]string{"t": `<SFMT >`}},
		{Name: "badconstraint", Queries: []string{`create R()`}, Constraints: []string{"gibberish"}},
		{Name: "badroot", Queries: []string{`create R()`}, Roots: []string{"Ghost()"}},
	}
	for _, v := range cases {
		v := v
		if _, err := BuildVersion(&v, data); err == nil {
			t.Errorf("version %s should fail", v.Name)
		}
	}
}

func TestSharedSiteGraphAcrossVersions(t *testing.T) {
	// One site graph, two renderings (the paper's internal/external
	// pattern when only templates differ).
	data := graph.New()
	data.AddToCollection("Publications", "pub1")
	data.AddEdge("pub1", "title", graph.NewString("Strudel"))
	data.AddEdge("pub1", "secret", graph.NewString("classified"))
	queries := []*struql.Query{struql.MustParse(`
where Publications(x)
create Page(x)
link Page(x) -> "title" -> "T"
collect Pages(Page(x))
{ where x -> l -> v link Page(x) -> l -> v }
`)}
	site, err := struql.EvalSeq(queries, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	internal := &Version{
		Name:                   "internal",
		Templates:              map[string]string{"Page": `<SFMT title> [<SFMT secret>]`},
		ObjectTemplatePrefixes: map[string]string{"Page(": "Page"},
		Roots:                  []string{"Page(pub1)"},
	}
	external := &Version{
		Name:                   "external",
		Templates:              map[string]string{"Page": `<SFMT title>`},
		ObjectTemplatePrefixes: map[string]string{"Page(": "Page"},
		Roots:                  []string{"Page(pub1)"},
	}
	ivr, err := RenderVersion(internal, queries, site)
	if err != nil {
		t.Fatal(err)
	}
	evr, err := RenderVersion(external, queries, site)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ivr.Output.Pages["index.html"], "classified") {
		t.Error("internal version should show the secret")
	}
	if strings.Contains(evr.Output.Pages["index.html"], "classified") {
		t.Error("external version must hide the secret")
	}
	if ivr.SiteGraph != evr.SiteGraph {
		t.Error("versions should share one site graph")
	}
}

func TestCountQueryLines(t *testing.T) {
	got := countQueryLines([]string{"a\n\n// c\n# d\nb\n", "x"})
	if got != 3 {
		t.Errorf("countQueryLines = %d, want 3", got)
	}
}
