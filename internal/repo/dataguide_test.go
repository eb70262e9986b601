package repo

import (
	"strings"
	"testing"

	"strudel/internal/graph"
)

func guideGraph() *graph.Graph {
	g := graph.New()
	g.AddToCollection("Pubs", "p1")
	g.AddToCollection("Pubs", "p2")
	g.AddEdge("p1", "title", graph.NewString("A"))
	g.AddEdge("p1", "author", graph.NewNode("a1"))
	g.AddEdge("p2", "title", graph.NewString("B"))
	g.AddEdge("p2", "author", graph.NewNode("a2"))
	g.AddEdge("p2", "journal", graph.NewString("TODS")) // irregular
	g.AddEdge("a1", "name", graph.NewString("Mary"))
	g.AddEdge("a2", "name", graph.NewString("Dan"))
	g.AddEdge("a2", "inst", graph.NewString("ATT")) // irregular
	return g
}

func TestDataGuidePaths(t *testing.T) {
	dg := BuildDataGuide(guideGraph().Freeze(), nil)
	paths := dg.Paths(3)
	want := []string{"author", "author.inst", "author.name", "journal", "title"}
	if strings.Join(paths, ",") != strings.Join(want, ",") {
		t.Errorf("Paths = %v, want %v", paths, want)
	}
}

func TestDataGuideEveryPathOnce(t *testing.T) {
	// Strong dataguide property: each label path appears exactly once
	// even when many objects share it.
	g := graph.New()
	for i := 0; i < 20; i++ {
		oid := graph.OID(string(rune('a' + i)))
		g.AddToCollection("C", oid)
		g.AddEdge(oid, "x", graph.NewInt(int64(i)))
	}
	dg := BuildDataGuide(g.Freeze(), nil)
	paths := dg.Paths(2)
	if len(paths) != 1 || paths[0] != "x" {
		t.Errorf("Paths = %v", paths)
	}
	if dg.Size() != 2 { // root + the x target
		t.Errorf("Size = %d", dg.Size())
	}
}

func TestDataGuideAnnotations(t *testing.T) {
	dg := BuildDataGuide(guideGraph().Freeze(), nil)
	str := dg.String()
	// Two author objects are summarized by one guide node annotated 2.
	if !strings.Contains(str, "author (2)") {
		t.Errorf("guide:\n%s", str)
	}
	// Only one journal atom.
	if !strings.Contains(str, "journal (1)") {
		t.Errorf("guide:\n%s", str)
	}
}

func TestDataGuideCycles(t *testing.T) {
	g := graph.New()
	g.AddToCollection("C", "a")
	g.AddEdge("a", "next", graph.NewNode("b"))
	g.AddEdge("b", "next", graph.NewNode("a"))
	dg := BuildDataGuide(g.Freeze(), nil)
	// Must terminate; paths are cut at cycles or maxDepth.
	paths := dg.Paths(5)
	if len(paths) == 0 {
		t.Error("cyclic guide should still report paths")
	}
	for _, p := range paths {
		if strings.Count(p, "next") > 5 {
			t.Errorf("path too deep: %s", p)
		}
	}
}

func TestDataGuideExplicitRoots(t *testing.T) {
	dg := BuildDataGuide(guideGraph().Freeze(), []graph.OID{"a2"})
	paths := dg.Paths(2)
	want := []string{"inst", "name"}
	if strings.Join(paths, ",") != strings.Join(want, ",") {
		t.Errorf("Paths = %v, want %v", paths, want)
	}
}

func TestDataGuideDeterministic(t *testing.T) {
	a := BuildDataGuide(guideGraph().Freeze(), nil).String()
	b := BuildDataGuide(guideGraph().Freeze(), nil).String()
	if a != b {
		t.Error("dataguide not deterministic")
	}
}
