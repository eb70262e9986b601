package baseline

import (
	"strings"
	"testing"

	"strudel/internal/graph"
	"strudel/internal/struql"
	"strudel/internal/synth"
	"strudel/internal/wrapper/bibtex"
)

func bibGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := bibtex.Load(synth.Bibliography(n, "bl"), bibtex.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestProceduralHomepagePages(t *testing.T) {
	data := bibGraph(t, 15)
	pages := ProceduralHomepage(data)
	if _, ok := pages["index.html"]; !ok {
		t.Fatal("index missing")
	}
	if _, ok := pages["abstracts.html"]; !ok {
		t.Fatal("abstracts missing")
	}
	// One paper page per publication.
	papers := 0
	for name := range pages {
		if strings.HasPrefix(name, "paper-") {
			papers++
		}
	}
	if papers != 15 {
		t.Errorf("paper pages = %d, want 15", papers)
	}
	// Year pages link papers.
	var sawYear bool
	for name, content := range pages {
		if strings.HasPrefix(name, "year-") {
			sawYear = true
			if !strings.Contains(content, "paper-") {
				t.Errorf("%s lists no papers", name)
			}
		}
	}
	if !sawYear {
		t.Error("no year pages")
	}
}

func TestProceduralGroupedComplexityScales(t *testing.T) {
	data := bibGraph(t, 10)
	p1 := ProceduralGrouped(data, "Publications", 1)
	p3 := ProceduralGrouped(data, "Publications", 3)
	if len(p3) <= len(p1) {
		t.Errorf("pages: dims=1 → %d, dims=3 → %d; more dimensions should add pages", len(p1), len(p3))
	}
	if !strings.Contains(p3["index.html"], "By month") {
		t.Error("dims=3 should group by month")
	}
	// dims beyond the known list saturates instead of panicking.
	_ = ProceduralGrouped(data, "Publications", 99)
}

func TestGroupedQueryParsesAndMatchesProcedural(t *testing.T) {
	// The declarative side of the Fig. 8 sweep builds the same grouping
	// structure the procedural side does: same group pages, same members.
	data := bibGraph(t, 12)
	for _, dims := range []int{1, 2, 4} {
		q, err := struql.Parse(GroupedQuery("Publications", dims))
		if err != nil {
			t.Fatalf("dims=%d: %v", dims, err)
		}
		r, err := struql.Eval(q, data, nil)
		if err != nil {
			t.Fatalf("dims=%d: %v", dims, err)
		}
		proc := ProceduralGrouped(data, "Publications", dims)
		// Count group pages on both sides.
		declGroups := 0
		for _, oid := range r.Graph.Nodes() {
			s := string(oid)
			for d := 0; d < dims; d++ {
				if strings.HasPrefix(s, dimTitle(GroupDims[d])+"Page(") {
					declGroups++
					break
				}
			}
		}
		procGroups := 0
		for name := range proc {
			for d := 0; d < dims; d++ {
				if strings.HasPrefix(name, GroupDims[d]+"-") {
					procGroups++
					break
				}
			}
		}
		if declGroups != procGroups {
			t.Errorf("dims=%d: declarative groups = %d, procedural = %d", dims, declGroups, procGroups)
		}
	}
}

func TestGroupedQueryLinkClausesGrowWithDims(t *testing.T) {
	q2 := struql.MustParse(GroupedQuery("Publications", 2))
	q6 := struql.MustParse(GroupedQuery("Publications", 6))
	if q6.LinkClauseCount() <= q2.LinkClauseCount() {
		t.Error("structural complexity should grow with dimensions")
	}
}

func TestProceduralDeterminism(t *testing.T) {
	data := bibGraph(t, 8)
	a := ProceduralHomepage(data)
	b := ProceduralHomepage(data)
	if len(a) != len(b) {
		t.Fatal("page counts differ")
	}
	for name := range a {
		if a[name] != b[name] {
			t.Errorf("page %s differs between runs", name)
		}
	}
}
