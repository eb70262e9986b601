package htmlgen

import (
	"fmt"
	"strings"
	"testing"

	"strudel/internal/graph"
	"strudel/internal/template"
)

// regenSite builds the fixture site graph: a root listing two item
// pages, one of which embeds a shared box. Overrides replace attribute
// values, standing in for a re-evaluated site graph.
func regenSite(overrides map[string]string) *graph.Graph {
	val := func(key, dflt string) string {
		if v, ok := overrides[key]; ok {
			return v
		}
		return dflt
	}
	site := graph.New()
	site.AddEdge("root", "title", graph.NewString("Home"))
	site.AddEdge("root", "item", graph.NewNode("a"))
	site.AddEdge("root", "item", graph.NewNode("b"))
	site.AddEdge("a", "title", graph.NewString(val("a.title", "Item A")))
	site.AddEdge("b", "title", graph.NewString(val("b.title", "Item B")))
	site.AddEdge("a", "box", graph.NewNode("shared"))
	site.AddEdge("shared", "note", graph.NewString(val("shared.note", "v1")))
	return site
}

// regenFixture wires templates around the fixture site.
func regenFixture(t *testing.T) (*Generator, *graph.Graph) {
	t.Helper()
	site := regenSite(nil)
	ts := template.NewSet()
	ts.MustAdd("root", `<h1><SFMT title></h1><SFMT item UL TEXT=title>`)
	ts.MustAdd("item", `<h2><SFMT title></h2><SIF box><SFMT box EMBED></SIF>`)
	ts.MustAdd("box", `[note: <SFMT note>]`)
	g := New(site, ts)
	g.PerObject["root"] = "root"
	g.PerObject["a"] = "item"
	g.PerObject["b"] = "item"
	g.PerObject["shared"] = "box"
	return g, site
}

// readsOf decodes a page's read set.
func readsOf(out *Output, page graph.OID) []read {
	var reads []read
	for _, k := range out.reads[page] {
		t := &out.readIDs
		reads = append(reads, read{oid: t.oids.at[k>>32], label: t.labels.at[uint32(k)>>2], kind: readKind(k & 3)})
	}
	return reads
}

// hasRead reports whether a page's read set holds the read.
func hasRead(out *Output, page graph.OID, r read) bool {
	for _, got := range readsOf(out, page) {
		if got == r {
			return true
		}
	}
	return false
}

func TestReadsRecorded(t *testing.T) {
	g, _ := regenFixture(t)
	out, err := g.Generate([]graph.OID{"root"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		page graph.OID
		read read
		want bool
	}{
		// Page a embeds shared, so a reads shared's note.
		{"a", read{oid: "shared", label: "note"}, true},
		// a's template asks for box whether or not it is there.
		{"a", read{oid: "a", label: "box"}, true},
		{"b", read{oid: "b", label: "box"}, true},
		// Root's anchors read the items' titles: TEXT=title.
		{"root", read{oid: "a", label: "title"}, true},
		{"root", read{oid: "b", label: "title"}, true},
		// Linking a does not read a's other attributes.
		{"root", read{oid: "a", label: "box"}, false},
		{"root", read{oid: "shared", label: "note"}, false},
	} {
		if got := hasRead(out, tc.page, tc.read); got != tc.want {
			t.Errorf("%s reads %+v = %v, want %v (reads %v)", tc.page, tc.read, got, tc.want, readsOf(out, tc.page))
		}
	}
	// Template selection by per-object name reads nothing; a default
	// listing reads every edge, and its selection consulted the
	// HTML-template attribute and the collections.
	g.PerObject = map[graph.OID]string{"root": "root"}
	out, err = g.Generate([]graph.OID{"root"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []read{
		{oid: "a", kind: edgesRead},
		{oid: "a", label: "HTML-template"},
		{oid: "a", kind: collectionsRead},
	} {
		if !hasRead(out, "a", r) {
			t.Errorf("default-rendered a lacks read %+v: %v", r, readsOf(out, "a"))
		}
	}
	if hasRead(out, "root", read{oid: "root", label: "HTML-template"}) {
		t.Error("a per-object template selection recorded an attribute read")
	}
}

func TestRegenerateOnlyDirtyPages(t *testing.T) {
	g, site := regenFixture(t)
	out, err := g.Generate([]graph.OID{"root"})
	if err != nil {
		t.Fatal(err)
	}
	before := map[string]string{}
	for n, p := range out.Pages {
		before[n] = p
	}
	// Change the shared box's note by swapping in a freshly evaluated
	// site graph (the pipeline rebuilds site graphs; it never mutates
	// them in place).
	_ = site
	g.Site = regenSite(map[string]string{"shared.note": "v2"})
	n, err := g.Regenerate(out, Changes{Edges: []Attr{{OID: "shared", Label: "note"}}})
	if err != nil {
		t.Fatal(err)
	}
	// Dirty pages: shared's own page (it was realized? no — embedded only,
	// so no page) and a's page, which embeds it. Root and b are clean.
	if len(n) != 1 {
		t.Errorf("redone %v, want 1 page (only a)", n)
	}
	aPage := out.Pages[out.PageFiles["a"]]
	if !strings.Contains(aPage, "v2") {
		t.Errorf("a not re-rendered:\n%s", aPage)
	}
	if out.Pages["index.html"] != before["index.html"] {
		t.Error("root should be untouched")
	}
	if out.Pages[out.PageFiles["b"]] != before[out.PageFiles["b"]] {
		t.Error("b should be untouched")
	}
}

func TestRegenerateAnchorTextChange(t *testing.T) {
	g, site := regenFixture(t)
	out, err := g.Generate([]graph.OID{"root"})
	if err != nil {
		t.Fatal(err)
	}
	// b's title feeds root's anchor text: changing b dirties root and b.
	_ = site
	g.Site = regenSite(map[string]string{"b.title": "Item B renamed"})
	n, err := g.Regenerate(out, Changes{Edges: []Attr{{OID: "b", Label: "title"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(n) != 2 {
		t.Errorf("redone %v, want 2 pages (root + b)", n)
	}
	if !strings.Contains(out.Pages["index.html"], "Item B renamed") {
		t.Error("root anchor not refreshed")
	}
}

func TestRegenerateVanishedObjectDropsPage(t *testing.T) {
	g, _ := regenFixture(t)
	out, err := g.Generate([]graph.OID{"root"})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a rebuilt site graph without b.
	site2 := graph.New()
	site2.AddEdge("root", "title", graph.NewString("Home"))
	site2.AddEdge("root", "item", graph.NewNode("a"))
	site2.AddEdge("a", "title", graph.NewString("Item A"))
	site2.AddEdge("a", "box", graph.NewNode("shared"))
	site2.AddEdge("shared", "note", graph.NewString("v1"))
	g.Site = site2
	bFile := out.PageFiles["b"]
	gone := Changes{
		Edges: []Attr{{OID: "root", Label: "item"}, {OID: "b", Label: "title"}},
		Nodes: []graph.OID{"b"},
	}
	if _, err := g.Regenerate(out, gone); err != nil {
		t.Fatal(err)
	}
	if _, still := out.Pages[bFile]; still {
		t.Error("vanished object's page should be dropped")
	}
	if !strings.Contains(out.Pages["index.html"], "Item A") {
		t.Error("root should re-render without b")
	}
	if strings.Contains(out.Pages["index.html"], "Item B") {
		t.Errorf("root still lists b:\n%s", out.Pages["index.html"])
	}
}

func TestRegenerateMatchesFullGeneration(t *testing.T) {
	// After any regeneration, the output must equal a from-scratch
	// generation over the same site graph.
	g, site := regenFixture(t)
	out, err := g.Generate([]graph.OID{"root"})
	if err != nil {
		t.Fatal(err)
	}
	_ = site
	g.Site = regenSite(map[string]string{"shared.note": "v3", "a.title": "Item A v3"})
	changed := Changes{Edges: []Attr{{OID: "shared", Label: "note"}, {OID: "a", Label: "title"}}}
	if _, err := g.Regenerate(out, changed); err != nil {
		t.Fatal(err)
	}
	fresh, err := g.Generate([]graph.OID{"root"})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range fresh.Pages {
		if out.Pages[name] != want {
			t.Errorf("page %s differs after regeneration:\n--- incremental\n%s\n--- fresh\n%s",
				name, out.Pages[name], want)
		}
	}
}

// TestReadTableBoundedUnderChurn pins that the read table holds only
// what live pages read: adding and removing a fresh object, edit after
// edit, must not grow it.
func TestReadTableBoundedUnderChurn(t *testing.T) {
	g, site := regenFixture(t)
	out, err := g.Generate([]graph.OID{"root"})
	if err != nil {
		t.Fatal(err)
	}
	size := func() [4]int {
		tb := &out.readIDs
		return [4]int{len(tb.oids.ids), len(tb.oids.at), len(tb.labels.ids), len(tb.labels.at)}
	}
	var first [4]int
	for i := 0; i < 50; i++ {
		oid := graph.OID(fmt.Sprintf("new%d", i))
		label := fmt.Sprintf("note%d", i)
		ch := Changes{
			Edges: []Attr{{OID: "root", Label: "item"}, {OID: oid, Label: label}},
			Nodes: []graph.OID{oid},
		}
		site.AddEdge("root", "item", graph.NewNode(oid))
		site.AddEdge(oid, label, graph.NewString("x"))
		if _, err := g.Regenerate(out, ch); err != nil {
			t.Fatal(err)
		}
		if _, ok := out.PageFiles[oid]; !ok {
			t.Fatalf("cycle %d: %s got no page", i, oid)
		}
		site.RemoveEdge("root", "item", graph.NewNode(oid))
		site.RemoveEdge(oid, label, graph.NewString("x"))
		site.RemoveNode(oid)
		if _, err := g.Regenerate(out, ch); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = size()
		} else if got := size(); got != first {
			t.Fatalf("cycle %d: read table (oids, numbered oids, labels, numbered labels) = %v, was %v after the first cycle", i, got, first)
		}
	}
	fresh, err := g.Generate([]graph.OID{"root"})
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Pages) != len(out.Pages) {
		t.Errorf("%d pages after churn, a fresh build has %d", len(out.Pages), len(fresh.Pages))
	}
	for name, want := range fresh.Pages {
		if out.Pages[name] != want {
			t.Errorf("page %s differs after churn", name)
		}
	}
}
