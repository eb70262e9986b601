package struql_test

// External test file: checks that queries answer identically against a
// plain map graph (frozen by each evaluation) and the fully-indexed
// repository (its own snapshot), and that a composed
// query reads base and constructed data as one graph.

import (
	"fmt"
	"testing"
	"testing/quick"

	"strudel/internal/graph"
	"strudel/internal/struql"
)

func syntheticGraph(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		oid := graph.OID(fmt.Sprintf("p%d", i))
		g.AddToCollection("Items", oid)
		g.AddEdge(oid, "year", graph.NewInt(int64(1990+i%10)))
		g.AddEdge(oid, "kind", graph.NewString([]string{"a", "b", "c"}[i%3]))
		g.AddEdge(oid, "next", graph.NewNode(graph.OID(fmt.Sprintf("p%d", (i+1)%n))))
		if i%4 == 0 {
			g.AddEdge(oid, "extra", graph.NewString("rare"))
		}
	}
	return g
}

var equivalenceQueries = []string{
	`where Items(x), x -> "year" -> y, y > 1995 create N(x, y)`,
	`where Items(x), x -> l -> v create P(x) link P(x) -> l -> v`,
	`where Items(x), x -> "next"."next" -> z create NN(x, z)`,
	`where Items(x), x -> ("next")* -> z, z -> "extra" -> e create R(x, z)`,
	`where Items(x), not(x -> "extra" -> e) create NoExtra(x)`,
	`where Items(x), x -> "kind" -> "b" create B(x)`,
}

func TestIndexedAndNaiveSourcesAgree(t *testing.T) {
	g := syntheticGraph(40)
	naive := g
	indexed := g.Copy().Freeze()
	for _, qs := range equivalenceQueries {
		q := struql.MustParse(qs)
		rn, err := struql.Eval(q, naive, nil)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		ri, err := struql.Eval(q, indexed, nil)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		if rn.Graph.Dump() != ri.Graph.Dump() {
			t.Errorf("sources disagree on %s:\n--- naive\n%s--- indexed\n%s", qs, rn.Graph.Dump(), ri.Graph.Dump())
		}
	}
}

func TestIndexedAndNaiveAgreeProperty(t *testing.T) {
	f := func(seed uint8) bool {
		g := syntheticGraph(int(seed%25) + 3)
		q := struql.MustParse(equivalenceQueries[int(seed)%len(equivalenceQueries)])
		rn, err1 := struql.Eval(q, g, nil)
		ri, err2 := struql.Eval(q, g.Copy().Freeze(), nil)
		if err1 != nil || err2 != nil {
			return false
		}
		return rn.Graph.Dump() == ri.Graph.Dump()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQueryOverUnionSeesBothSides pins composition: a later query of
// EvalSeq reads the base data and what earlier queries constructed as
// one graph, so it can join across the two.
func TestQueryOverUnionSeesBothSides(t *testing.T) {
	data := graph.New()
	data.AddToCollection("Pubs", "p")
	data.AddEdge("p", "title", graph.NewString("T"))
	build := struql.MustParse(`where Pubs(x) create Page(x) link Page(x) -> "self" -> x collect Pages(Page(x))`)
	join := struql.MustParse(`where Pages(pg), pg -> "self" -> x, x -> "title" -> t
		create Nav(pg) link Nav(pg) -> "title" -> t`)
	for _, src := range []struct {
		name string
		src  struql.Source
	}{{"graph", data}, {"indexed", data.Copy().Freeze()}} {
		site, err := struql.EvalSeq([]*struql.Query{build, join}, src.src, &struql.Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: %v", src.name, err)
		}
		if !site.HasEdge("Nav(Page_p_)", "title", graph.NewString("T")) {
			t.Errorf("%s: cross-side join failed:\n%s", src.name, site.Dump())
		}
	}
}
