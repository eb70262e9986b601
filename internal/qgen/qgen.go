// Package qgen holds the seeded random generators behind the
// differential oracles: data graphs with deliberately skewed label
// selectivities, full StruQL queries covering every condition and
// construction form, and standalone where clauses for the query API.
// The generators were born in the struql package's oracle (PR 5) and
// were extracted so network-level harnesses (the HTTP query oracle,
// fuzz seeds) can reuse the exact same corpus; the outputs are
// bit-for-bit what the in-package originals produced, so existing
// seeds and fuzz corpora keep their meaning.
//
// Everything is deterministic from the seed: the random source is a
// self-contained 64-bit LCG, not math/rand, so the corpus never shifts
// under Go releases.
package qgen

import (
	"fmt"
	"strings"

	"strudel/internal/graph"
)

// Rand is a small deterministic generator (64-bit LCG, high bits).
type Rand struct{ s uint64 }

// NewRand seeds a generator.
func NewRand(seed uint64) *Rand {
	return &Rand{s: seed*2654435761 + 0x9e3779b97f4a7c15}
}

// N returns a value in [0, k).
func (r *Rand) N(k int) int {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return int((r.s >> 33) % uint64(k))
}

// Pick returns one of the given strings.
func (r *Rand) Pick(ss ...string) string { return ss[r.N(len(ss))] }

// Graph builds a seeded random data graph with deliberately skewed
// label selectivities — "id" is unique per node, "tag" is dense, "next"
// is a near-chain, "ref" is sparse and cross-cutting — so a cost-based
// planner's choices actually differ from textual order.
func Graph(seed uint64) *graph.Graph {
	r := NewRand(seed)
	g := graph.New()
	n := 6 + r.N(20)
	oid := func(i int) graph.OID { return graph.OID(fmt.Sprintf("n%02d", i)) }
	for i := 0; i < n; i++ {
		g.AddToCollection("Items", oid(i))
		if r.N(3) == 0 {
			g.AddToCollection("Extra", oid(i))
		}
		g.AddEdge(oid(i), "id", graph.NewString(fmt.Sprintf("id%02d", i)))
		g.AddEdge(oid(i), "year", graph.NewInt(int64(1990+r.N(8))))
		if r.N(4) != 0 {
			g.AddEdge(oid(i), "kind", graph.NewString(r.Pick("a", "b", "c")))
		}
		for t := r.N(3); t > 0; t-- {
			g.AddEdge(oid(i), "tag", graph.NewString(r.Pick("t1", "t2", "t3")))
		}
		if r.N(5) != 0 {
			g.AddEdge(oid(i), "next", graph.NewNode(oid((i+1+r.N(2))%n)))
		}
		if r.N(3) == 0 {
			g.AddEdge(oid(i), "ref", graph.NewNode(oid(r.N(n))))
		}
		if r.N(4) == 0 {
			g.AddEdge(oid(i), "score", graph.NewFloat(float64(r.N(100))/4))
		}
		if i%3 == 0 {
			g.AddEdge(oid(i), "extra", graph.NewString("e"))
		}
	}
	// One node outside every collection, reachable only through "ref":
	// paths can leave the collections the queries scan.
	g.AddNode(oid(n))
	g.AddEdge(oid(r.N(n)), "ref", graph.NewNode(oid(n)))
	return g
}

// conds generates the shuffled condition list of a random query: every
// condition form (membership, label and reverse paths, arc variables,
// regular path expressions, comparisons, predicates, negation), with
// every referenced variable bound by some positive condition. It
// returns the conditions, the bound variables, and the arc variables,
// advancing r exactly as the original in-test generator did.
func conds(r *Rand) (cs, bound, arcVars []string) {
	bound = []string{"x"}
	varN := 0
	fresh := func() string { varN++; return fmt.Sprintf("v%d", varN) }

	cs = []string{r.Pick("Items(x)", "Items(x)", "Items(x)", "Extra(x)")}
	binders := 1
	nConds := 1 + r.N(5)
	for i := 0; i < nConds; i++ {
		src := bound[r.N(len(bound))]
		kind := r.N(10)
		if binders >= 4 && kind < 4 {
			kind = 4 + r.N(6) // enough binders; stick to filters and negation
		}
		switch kind {
		case 0: // forward label seek
			v := fresh()
			cs = append(cs, fmt.Sprintf("%s -> %q -> %s",
				src, r.Pick("id", "year", "kind", "tag", "next", "ref"), v))
			bound = append(bound, v)
			binders++
		case 1: // reverse: bound target, unbound source
			v := fresh()
			cs = append(cs, fmt.Sprintf("%s -> %q -> %s", v, r.Pick("next", "ref"), src))
			bound = append(bound, v)
			binders++
		case 2: // arc variable binds the label too
			v := fresh()
			l := fmt.Sprintf("l%d", i)
			cs = append(cs, fmt.Sprintf("%s -> %s -> %s", src, l, v))
			bound = append(bound, v, l)
			arcVars = append(arcVars, l)
			binders++
		case 3: // regular path expression
			v := fresh()
			rpe := r.Pick(`"next"*`, `"next"+`, `("next"|"ref")`, `"next"."tag"`,
				`"ref"?."kind"`, `~"t.*"`, `_`, `("next"."ref")*`, `"next"?`)
			cs = append(cs, fmt.Sprintf("%s -> %s -> %s", src, rpe, v))
			bound = append(bound, v)
			binders++
		case 4: // comparison against a constant
			cs = append(cs, r.Pick(
				fmt.Sprintf("%s > %d", src, 1990+r.N(8)),
				fmt.Sprintf("%s <= %d", src, 1990+r.N(8)),
				fmt.Sprintf("%s != %q", src, r.Pick("a", "b", "t1")),
				fmt.Sprintf("%s = %q", src, r.Pick("a", "t2", "id03")),
			))
		case 5: // comparison between two bound variables
			other := bound[r.N(len(bound))]
			cs = append(cs, fmt.Sprintf("%s %s %s", src, r.Pick("!=", "=", "<"), other))
		case 6: // built-in predicate
			cs = append(cs, fmt.Sprintf("%s(%s)",
				r.Pick("isNode", "isAtom", "isInt", "isString"), src))
		case 7: // safe negation
			cs = append(cs, r.Pick(
				fmt.Sprintf("not(%s -> %q -> nz%d)", src, r.Pick("extra", "kind", "ref"), i),
				fmt.Sprintf("not(%s -> \"year\" -> nz%d, nz%d > %d)", src, i, i, 1993+r.N(4)),
				fmt.Sprintf("not(Extra(%s))", src),
			))
		case 8: // collection membership: probe a bound var or scan a new one
			if r.N(2) == 0 {
				cs = append(cs, fmt.Sprintf("Extra(%s)", src))
			} else {
				v := fresh()
				cs = append(cs, fmt.Sprintf("Extra(%s)", v))
				bound = append(bound, v)
				binders++
			}
		default: // path with a constant target
			cs = append(cs, fmt.Sprintf("%s -> \"kind\" -> %q", src, r.Pick("a", "b")))
		}
	}
	// Shuffle: condition order must never change the result, and the
	// planner (or first-ready fallback) must schedule any permutation.
	for i := len(cs) - 1; i > 0; i-- {
		j := r.N(i + 1)
		cs[i], cs[j] = cs[j], cs[i]
	}
	return cs, bound, arcVars
}

// WhereClause generates a standalone random where clause over the
// Graph vocabulary — the binding-relation half of RichQuery, with no
// construction clauses. It is the corpus the HTTP query oracle fires
// at /query, where the endpoint evaluates exactly a condition list.
func WhereClause(seed uint64) string {
	r := NewRand(seed)
	cs, _, _ := conds(r)
	return "where " + strings.Join(cs, ",\n      ")
}

// RichQuery builds a random-but-valid full StruQL query from a seed:
// the WhereClause condition forms plus aggregates, multi-Skolem
// construction, arc-variable links, collections, and nested blocks.
// Every referenced variable is bound by some positive condition, so
// the query always parses and evaluates without error.
func RichQuery(seed uint64) string {
	r := NewRand(seed)
	cs, bound, arcVars := conds(r)

	var b strings.Builder
	b.WriteString("where ")
	b.WriteString(strings.Join(cs, ",\n      "))

	if r.N(6) == 0 && len(bound) > 1 {
		av := bound[1+r.N(len(bound)-1)]
		fn := r.Pick("count", "min", "max", "sum", "avg")
		fmt.Fprintf(&b, "\naggregate %s(%s) as agg by x", fn, av)
		b.WriteString("\ncreate Agg(x)\nlink Agg(x) -> \"val\" -> agg, Agg(x) -> \"self\" -> x")
		if r.N(2) == 0 {
			b.WriteString("\ncollect Results(Agg(x))")
		}
		return b.String()
	}

	b.WriteString("\ncreate Out(x)")
	if r.N(3) == 0 {
		fmt.Fprintf(&b, ", Pair(x, %s)", bound[r.N(len(bound))])
	}
	links := []string{fmt.Sprintf("Out(x) -> \"t0\" -> %s", bound[r.N(len(bound))])}
	for k := r.N(3); k > 0; k-- {
		links = append(links, fmt.Sprintf("Out(x) -> \"t%d\" -> %s", k, bound[r.N(len(bound))]))
	}
	if len(arcVars) > 0 && r.N(2) == 0 {
		links = append(links, fmt.Sprintf("Out(x) -> %s -> x", arcVars[0]))
	}
	fmt.Fprintf(&b, "\nlink %s", strings.Join(links, ", "))
	if r.N(2) == 0 {
		b.WriteString("\ncollect Results(Out(x))")
	}
	if r.N(4) == 0 {
		fmt.Fprintf(&b, "\n{ where %s -> %q -> w create Sub(x, w) link Sub(x, w) -> \"w\" -> w }",
			bound[r.N(len(bound))], r.Pick("kind", "tag", "next"))
	}
	return b.String()
}

// Papers builds the small publications graph the edit storms start
// from: six papers in "Papers" with titles, years, some topics and two
// citations.
func Papers() *graph.Graph {
	g := graph.New()
	for i := 0; i < 6; i++ {
		oid := graph.OID(fmt.Sprintf("p%d", i))
		g.AddToCollection("Papers", oid)
		g.AddEdge(oid, "title", graph.NewString(fmt.Sprintf("Paper %d", i)))
		g.AddEdge(oid, "year", graph.NewInt(int64(1994+i%3)))
		if i%2 == 0 {
			g.AddEdge(oid, "topic", graph.NewString("db"))
		}
	}
	g.AddEdge("p0", "cites", graph.NewNode("p1"))
	g.AddEdge("p1", "cites", graph.NewNode("p2"))
	return g
}

// Edit applies one random source edit to a Papers graph: an added edge,
// a removed edge, a value mutation, a membership change, or a
// whole-record deletion — the edit-storm vocabulary of the soak suite.
// A deleted record's node goes with RemoveNode, so edges into it may be
// left dangling.
func Edit(r *Rand, g *graph.Graph) {
	oid := func() graph.OID { return graph.OID(fmt.Sprintf("p%d", r.N(10))) }
	label := func() string { return r.Pick("title", "year", "topic", "cites") }
	value := func() graph.Value {
		switch r.N(3) {
		case 0:
			return graph.NewString(r.Pick("a", "b", "db", "web"))
		case 1:
			return graph.NewInt(int64(1990 + r.N(10)))
		default:
			return graph.NewNode(oid())
		}
	}
	switch r.N(5) {
	case 0: // add edge
		g.AddEdge(oid(), label(), value())
	case 1: // remove an existing edge, if any
		o := oid()
		if es := g.Out(o); len(es) > 0 {
			e := es[r.N(len(es))]
			g.RemoveEdge(e.From, e.Label, e.To)
		}
	case 2: // mutate a value in place
		o := oid()
		if es := g.Out(o); len(es) > 0 {
			e := es[r.N(len(es))]
			g.RemoveEdge(e.From, e.Label, e.To)
			g.AddEdge(e.From, e.Label, value())
		}
	case 3: // membership churn
		if r.N(2) == 0 {
			g.AddToCollection("Papers", oid())
		} else {
			g.RemoveFromCollection("Papers", oid())
		}
	case 4: // delete the whole record
		o := oid()
		for _, e := range g.Out(o) {
			g.RemoveEdge(e.From, e.Label, e.To)
		}
		g.RemoveFromCollection("Papers", o)
		g.RemoveNode(o)
	}
}
