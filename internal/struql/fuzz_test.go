package struql

import (
	"testing"

	"strudel/internal/graph"
)

// FuzzParse exercises the StruQL lexer/parser/analyzer on arbitrary
// input: it must never panic, and anything that parses must print to a
// form that reparses.
func FuzzParse(f *testing.F) {
	seeds := []string{
		fig3Query,
		textOnlyQuery,
		`where C(x), x -> l -> v create N(x) link N(x) -> l -> v`,
		`where C(x), x -> ("a"|"b")* -> y, not(isImageFile(y)) create N(y) collect Out(N(y))`,
		`where C(x) aggregate count(x) as n by x create S(x)`,
		`create R() link R() -> "t" -> "v"`,
		`where C(x), x -> "y" -> 1997, x -> "f" -> 2.5, x -> "b" -> true create N(x)`,
		"where \x00", "-> -> ->", `where C(x), x -> ~"(" -> y create N(x)`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		printed := q.String()
		q2, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form does not reparse: %v\noriginal: %q\nprinted: %q", err, src, printed)
		}
		if q2.String() != printed {
			t.Fatalf("printing is not a fixed point:\n%q\nvs\n%q", printed, q2.String())
		}
	})
}

// FuzzEval evaluates whatever parses against a small graph: evaluation
// must not panic and must be deterministic.
func FuzzEval(f *testing.F) {
	f.Add(`where Items(x), x -> "year" -> y create N(x, y)`)
	f.Add(`where Items(x), x -> l -> v create P(x) link P(x) -> l -> v`)
	f.Add(`where Items(x), x -> ("next")* -> z create R(z)`)
	g := graph.New()
	for i := 0; i < 6; i++ {
		oid := graph.OID(string(rune('a' + i)))
		g.AddToCollection("Items", oid)
		g.AddEdge(oid, "year", graph.NewInt(int64(1990+i)))
		g.AddEdge(oid, "next", graph.NewNode(graph.OID(string(rune('a'+(i+1)%6)))))
	}
	src := g
	f.Fuzz(func(t *testing.T, qs string) {
		q, err := Parse(qs)
		if err != nil {
			return
		}
		r1, err1 := Eval(q, src, nil)
		r2, err2 := Eval(q, src, nil)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("nondeterministic error: %v vs %v", err1, err2)
		}
		if err1 == nil && r1.Graph.Dump() != r2.Graph.Dump() {
			t.Fatalf("nondeterministic evaluation for %q", qs)
		}
	})
}
