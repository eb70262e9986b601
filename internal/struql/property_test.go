package struql

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"strudel/internal/graph"
)

// genQuery builds a small random-but-valid StruQL query from a seed: a
// collection scan, a few path/edge/filter conditions, and a construction
// stage using the bound variables.
func genQuery(seed uint32) string {
	rnd := func() uint32 { seed = seed*1664525 + 1013904223; return seed >> 16 }
	var b strings.Builder
	b.WriteString("where Items(x)")
	vars := []string{"x"}
	nConds := int(rnd()%4) + 1
	for i := 0; i < nConds; i++ {
		v := fmt.Sprintf("v%d", i)
		switch rnd() % 5 {
		case 0:
			fmt.Fprintf(&b, ", x -> %q -> %s", []string{"year", "kind", "next"}[rnd()%3], v)
			vars = append(vars, v)
		case 1:
			fmt.Fprintf(&b, ", x -> l%d -> %s", i, v)
			vars = append(vars, v)
		case 2:
			fmt.Fprintf(&b, ", x -> (\"next\")* -> %s, isNode(%s)", v, v)
			vars = append(vars, v)
		case 3:
			fmt.Fprintf(&b, ", x -> \"year\" -> %s, %s > %d", v, v, 1990+rnd()%8)
			vars = append(vars, v)
		case 4:
			fmt.Fprintf(&b, ", not(x -> %q -> z%d)", []string{"extra", "kind"}[rnd()%2], i)
		}
	}
	b.WriteString("\ncreate Out(x)\nlink ")
	tgt := vars[rnd()%uint32(len(vars))]
	fmt.Fprintf(&b, "Out(x) -> \"t\" -> %s", tgt)
	if rnd()%2 == 0 {
		b.WriteString("\ncollect Results(Out(x))")
	}
	return b.String()
}

func propertyGraph(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		oid := graph.OID(fmt.Sprintf("i%02d", i))
		g.AddToCollection("Items", oid)
		g.AddEdge(oid, "year", graph.NewInt(int64(1990+i%8)))
		g.AddEdge(oid, "kind", graph.NewString([]string{"a", "b"}[i%2]))
		g.AddEdge(oid, "next", graph.NewNode(graph.OID(fmt.Sprintf("i%02d", (i+1)%n))))
		if i%3 == 0 {
			g.AddEdge(oid, "extra", graph.NewString("e"))
		}
	}
	return g
}

func TestRandomQueriesPrintParseFixedPoint(t *testing.T) {
	f := func(seed uint32) bool {
		src := genQuery(seed)
		q, err := Parse(src)
		if err != nil {
			t.Logf("seed %d: %v\n%s", seed, err, src)
			return false
		}
		printed := q.String()
		q2, err := Parse(printed)
		if err != nil {
			t.Logf("seed %d reparse: %v\n%s", seed, err, printed)
			return false
		}
		return q2.String() == printed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRandomQueriesOptimizerEquivalence(t *testing.T) {
	g := propertyGraph(12)
	src := g
	f := func(seed uint32) bool {
		q := MustParse(genQuery(seed))
		opt, err1 := Eval(q, src, nil)
		txt, err2 := Eval(q, src, &Options{NoReorder: true})
		if err1 != nil || err2 != nil {
			t.Logf("seed %d: %v / %v", seed, err1, err2)
			return false
		}
		if opt.Graph.Dump() != txt.Graph.Dump() {
			t.Logf("seed %d diverged:\n%s", seed, genQuery(seed))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRandomQueriesDeterministic(t *testing.T) {
	g := propertyGraph(10)
	src := g
	f := func(seed uint32) bool {
		q := MustParse(genQuery(seed))
		a, err1 := Eval(q, src, nil)
		b, err2 := Eval(q, src, nil)
		if err1 != nil || err2 != nil {
			return false
		}
		return a.Graph.Dump() == b.Graph.Dump()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRandomQueriesRecoverableFromSchema(t *testing.T) {
	// Print→parse suffices for the schema package's RecoverQuery tests,
	// but here we assert at least that every random query's link clauses
	// survive printing (count preserved).
	f := func(seed uint32) bool {
		q := MustParse(genQuery(seed))
		q2 := MustParse(q.String())
		return q.LinkClauseCount() == q2.LinkClauseCount() &&
			strings.Join(q.SkolemFunctions(), ",") == strings.Join(q2.SkolemFunctions(), ",")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
