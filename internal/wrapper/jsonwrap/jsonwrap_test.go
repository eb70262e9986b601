package jsonwrap

import (
	"testing"

	"strudel/internal/graph"
	"strudel/internal/struql"
)

const projectJSON = `{
  "id": "strudel",
  "name": "Strudel",
  "year": 1998,
  "score": 4.5,
  "active": true,
  "retired": null,
  "tags": ["databases", "web"],
  "members": [
    {"id": "mff", "name": "Mary"},
    {"name": "Anonymous"}
  ],
  "sponsor": {"name": "AT&T", "grant": 100000}
}`

func load(t *testing.T, src string) *graph.Graph {
	t.Helper()
	g, err := Load("doc", []byte(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestObjectMapping(t *testing.T) {
	g := load(t, projectJSON)
	// The root object is named by its id field.
	if !g.HasNode("doc/strudel") {
		t.Fatalf("nodes = %v", g.Nodes())
	}
	if !g.InCollection("ObjectsRoots", "doc/strudel") {
		t.Error("root collection missing")
	}
	if v := g.First("doc/strudel", "name"); v.Text() != "Strudel" {
		t.Errorf("name = %v", v)
	}
	// Whole numbers become ints; fractions floats; bools bools.
	if v := g.First("doc/strudel", "year"); v.Kind() != graph.KindInt || v.Int() != 1998 {
		t.Errorf("year = %v", v)
	}
	if v := g.First("doc/strudel", "score"); v.Kind() != graph.KindFloat {
		t.Errorf("score = %v", v)
	}
	if v := g.First("doc/strudel", "active"); v.Kind() != graph.KindBool || !v.Bool() {
		t.Errorf("active = %v", v)
	}
}

func TestNullMembersDropped(t *testing.T) {
	g := load(t, projectJSON)
	if !g.First("doc/strudel", "retired").IsNull() {
		t.Error("null member should be a missing attribute")
	}
}

func TestScalarArraysBecomeMultiValued(t *testing.T) {
	g := load(t, projectJSON)
	tags := g.OutLabel("doc/strudel", "tags")
	if len(tags) != 2 {
		t.Fatalf("tags = %v", tags)
	}
}

func TestObjectArraysKeepOrder(t *testing.T) {
	g := load(t, projectJSON)
	members := g.OutLabel("doc/strudel", "members")
	if len(members) != 2 {
		t.Fatalf("members = %v", members)
	}
	// The keyed member is named by id; the anonymous one by path.
	if !g.HasNode("doc/mff") {
		t.Error("keyed member should use its id")
	}
	var anon graph.OID
	for _, m := range members {
		if m.OID() != "doc/mff" {
			anon = m.OID()
		}
	}
	if g.First(anon, "name").Text() != "Anonymous" {
		t.Errorf("anon member wrong: %v", anon)
	}
	// §6.3 integer keys: index attributes record array order.
	if g.First("doc/mff", "index").Int() != 0 {
		t.Error("mff should have index 0")
	}
	if g.First(anon, "index").Int() != 1 {
		t.Error("anon should have index 1")
	}
}

func TestNestedObject(t *testing.T) {
	g := load(t, projectJSON)
	sponsor := g.First("doc/strudel", "sponsor")
	if !sponsor.IsNode() {
		t.Fatalf("sponsor = %v", sponsor)
	}
	if g.First(sponsor.OID(), "grant").Int() != 100000 {
		t.Error("nested attribute lost")
	}
}

func TestQueryOverWrappedJSON(t *testing.T) {
	// The whole point: StruQL queries run over wrapped JSON directly.
	g := load(t, projectJSON)
	r, err := struql.Eval(struql.MustParse(`
where Objects(o), o -> "name" -> n
create Card(o)
link Card(o) -> "name" -> n
`), g.Freeze(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// strudel, mff, anonymous member, sponsor — all have names.
	if got := len(r.Graph.Collection("")); got != 0 {
		t.Errorf("unexpected collection: %d", got)
	}
	cards := 0
	for _, oid := range r.Graph.Nodes() {
		if len(oid) > 5 && oid[:5] == "Card(" {
			cards++
		}
	}
	if cards != 4 {
		t.Errorf("cards = %d, want 4", cards)
	}
}

func TestArrayRootDocument(t *testing.T) {
	g, err := Load("arr", []byte(`[{"id": "a"}, {"id": "b"}]`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.CollectionSize("Objects") != 2 {
		t.Errorf("objects = %d", g.CollectionSize("Objects"))
	}
}

func TestScalarRootDocument(t *testing.T) {
	g, err := Load("s", []byte(`"just a string"`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.First("s/root", "value").Text() != "just a string" {
		t.Errorf("graph:\n%s", g.Dump())
	}
}

func TestBadJSON(t *testing.T) {
	if _, err := Load("bad", []byte(`{broken`), Options{}); err == nil {
		t.Error("bad JSON should fail")
	}
}

func TestNoIndexOption(t *testing.T) {
	g, err := Load("doc", []byte(`{"items": [{"a": 1}, {"a": 2}]}`), Options{NoIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, oid := range g.Nodes() {
		if !g.First(oid, "index").IsNull() {
			t.Errorf("index attribute present on %s despite NoIndex", oid)
		}
	}
}

func TestDeterministic(t *testing.T) {
	a := load(t, projectJSON).Dump()
	b := load(t, projectJSON).Dump()
	if a != b {
		t.Error("wrapping not deterministic")
	}
}
