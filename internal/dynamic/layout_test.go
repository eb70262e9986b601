package dynamic_test

import (
	"slices"
	"strings"
	"testing"

	"strudel/internal/dynamic"
	"strudel/internal/graph"
	"strudel/internal/template"
)

// TestOutLabelMatchesOut is the differential test of the cached page
// layout: for every page of the organization example site and every
// label of its schema, the label view a template reads equals the
// page's edges under that label, in the same order, and is capped so an
// append cannot write into the cache.
func TestOutLabelMatchesOut(t *testing.T) {
	snap, s, _ := orgSitePages(t)
	ev := dynamic.NewEvaluator(s, snap)
	var labels []string
	for _, e := range s.Edges {
		if !e.Label.IsVar && !slices.Contains(labels, e.Label.Lit) {
			labels = append(labels, e.Label.Lit)
		}
	}
	labels = append(labels, "no-such-label")

	var pages []*dynamic.PageData
	seen := map[graph.OID]bool{}
	queue := ev.EntryPoints()
	for len(queue) > 0 {
		ref := queue[0]
		queue = queue[1:]
		pd, err := ev.Page(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !seen[pd.OID] {
			seen[pd.OID] = true
			pages = append(pages, pd)
			queue = append(queue, ev.Links(pd)...)
		}
	}
	if len(pages) < 200 {
		t.Fatalf("crawled only %d pages", len(pages))
	}

	site := dynamic.SiteView(ev)
	reads := 0
	for _, pd := range pages {
		out := pd.Out()
		for _, l := range labels {
			var want []graph.Value
			for _, e := range out {
				if e.From != pd.OID {
					t.Fatalf("%s: edge from %s", pd.OID, e.From)
				}
				if e.Label == l {
					want = append(want, e.To)
				}
			}
			got := site.OutLabel(pd.OID, l)
			if !slices.Equal(got, want) {
				t.Fatalf("%s.%s = %v, want %v", pd.OID, l, got, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("%s.%s: view has capacity %d beyond its %d values", pd.OID, l, cap(got), len(got))
			}
			reads += len(got)
		}
	}
	t.Logf("%d pages, %d labels, %d values read", len(pages), len(labels), reads)
}

// TestOrderedRenderLeavesCacheOrder renders, twice over the same cached
// page, a template that lists an attribute in the page's order and then
// sorted by a key. A sort that reordered the cached view in place would
// change the first listing on the second render.
func TestOrderedRenderLeavesCacheOrder(t *testing.T) {
	snap, s, _ := orgSitePages(t)
	ev := dynamic.NewEvaluator(s, snap)
	ts := template.NewSet()
	ts.MustAdd("Index", `<SFMT Person UL>|<SFMT Person UL ORDER=descend KEY=name>`)
	srv := dynamic.NewRenderer(ev, ts, func(ref dynamic.PageRef) string { return "/" + ref.Fn })
	srv.PerFn["PeopleIndexPage"] = "Index"
	index := dynamic.PageRef{Fn: "PeopleIndexPage"}

	first, err := srv.RenderPage(index)
	if err != nil {
		t.Fatal(err)
	}
	asIs, sorted, ok := strings.Cut(first, "|")
	if !ok || asIs == sorted {
		t.Fatalf("the ordered listing equals the page-order one, so the test cannot see a reorder:\n%s", first)
	}
	second, err := srv.RenderPage(index)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatalf("second render differs from the first:\nfirst:  %s\nsecond: %s", first, second)
	}
}
