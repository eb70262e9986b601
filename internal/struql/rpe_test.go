package struql

import (
	"fmt"
	"testing"
	"testing/quick"

	"strudel/internal/graph"
)

func parsePath(t *testing.T, s string) *PathExpr {
	t.Helper()
	q, err := Parse(fmt.Sprintf("where C(x), x -> %s -> y create N(x)", s))
	if err != nil {
		t.Fatalf("parse path %q: %v", s, err)
	}
	return q.Blocks[0].Where[1].(*PathCond).Path
}

func TestNFAEmptyPathAcceptance(t *testing.T) {
	cases := []struct {
		path  string
		empty bool
	}{
		{`"a"`, false},
		{`"a"*`, true},
		{`"a"?`, true},
		{`"a"+`, false},
		{`"a"|"b"*`, true},
		{`"a"."b"`, false},
		{`("a"?)."b"?`, true},
	}
	for _, c := range cases {
		n := compileNFA(parsePath(t, c.path))
		if got := n.accepting(n.closure([]int{n.start})); got != c.empty {
			t.Errorf("%s: empty acceptance = %v, want %v", c.path, got, c.empty)
		}
	}
}

func TestPathMatcherCycles(t *testing.T) {
	// A two-node cycle must terminate and reach both nodes.
	g := graph.New()
	g.AddEdge("a", "n", graph.NewNode("b"))
	g.AddEdge("b", "n", graph.NewNode("a"))
	m := newPathMatcher(parsePath(t, `"n"*`), g.Freeze(), 0)
	got := m.reachableFrom("a")
	if len(got) != 2 {
		t.Fatalf("reachable = %v, want a and b", got)
	}
}

func TestPathMatcherDiamond(t *testing.T) {
	// Two paths to the same node yield one result.
	g := graph.New()
	g.AddEdge("s", "l", graph.NewNode("m1"))
	g.AddEdge("s", "l", graph.NewNode("m2"))
	g.AddEdge("m1", "r", graph.NewNode("t"))
	g.AddEdge("m2", "r", graph.NewNode("t"))
	m := newPathMatcher(parsePath(t, `"l"."r"`), g.Freeze(), 0)
	got := m.reachableFrom("s")
	if len(got) != 1 || got[0].OID() != "t" {
		t.Errorf("reachable = %v, want [t]", got)
	}
}

func TestPathMatcherPredicateEdges(t *testing.T) {
	// Regular path expressions permit predicates on edges: ~"is.*"*
	// matches any sequence of labels starting with "is".
	g := graph.New()
	g.AddEdge("a", "isPart", graph.NewNode("b"))
	g.AddEdge("b", "isPiece", graph.NewNode("c"))
	g.AddEdge("b", "other", graph.NewNode("d"))
	m := newPathMatcher(parsePath(t, `~"is.*"+`), g.Freeze(), 0)
	got := m.reachableFrom("a")
	oids := map[graph.OID]bool{}
	for _, v := range got {
		oids[v.OID()] = true
	}
	if !oids["b"] || !oids["c"] || oids["d"] {
		t.Errorf("reachable = %v", got)
	}
}

func TestPathMatcherRegexAnchored(t *testing.T) {
	// The regex must match the whole label, not a substring.
	g := graph.New()
	g.AddEdge("a", "xy", graph.NewNode("b"))
	g.AddEdge("a", "x", graph.NewNode("c"))
	m := newPathMatcher(parsePath(t, `~"x"`), g.Freeze(), 0)
	got := m.reachableFrom("a")
	if len(got) != 1 || got[0].OID() != "c" {
		t.Errorf("reachable = %v, want only c", got)
	}
}

func TestPathMatcherStarVsPlusProperty(t *testing.T) {
	// On random chain graphs: reach(R+) = reach(R.R*), and
	// reach(R*) = reach(R+) ∪ {start}.
	f := func(n uint8) bool {
		size := int(n%10) + 2
		g := graph.New()
		for i := 0; i < size-1; i++ {
			g.AddEdge(graph.OID(fmt.Sprintf("n%d", i)), "next", graph.NewNode(graph.OID(fmt.Sprintf("n%d", i+1))))
		}
		src := g.Freeze()
		var tt testing.T
		star := newPathMatcher(parsePath(&tt, `"next"*`), src, 0).reachableFrom("n0")
		plus := newPathMatcher(parsePath(&tt, `"next"+`), src, 0).reachableFrom("n0")
		comp := newPathMatcher(parsePath(&tt, `"next"."next"*`), src, 0).reachableFrom("n0")
		if len(plus) != len(comp) {
			return false
		}
		for i := range plus {
			if plus[i] != comp[i] {
				return false
			}
		}
		return len(star) == len(plus)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPathMatcherMemoConsistency(t *testing.T) {
	g := graph.New()
	g.AddEdge("a", "x", graph.NewNode("b"))
	m := newPathMatcher(parsePath(t, `"x"*`), g.Freeze(), 0)
	first := m.reachableFrom("a")
	second := m.reachableFrom("a")
	if len(first) != len(second) {
		t.Error("memo changed results")
	}
	hitB, _ := m.matches("a", graph.NewNode("b"))
	hitZZ, _ := m.matches("a", graph.NewNode("zz"))
	if !hitB || hitZZ {
		t.Error("matches wrong")
	}
}

func TestSingleLabelDetection(t *testing.T) {
	if l, ok := singleLabel(parsePath(t, `"year"`)); !ok || l != "year" {
		t.Errorf("singleLabel = %q, %v", l, ok)
	}
	for _, p := range []string{`"a"."b"`, `"a"*`, `_`, `~"x"`} {
		if _, ok := singleLabel(parsePath(t, p)); ok {
			t.Errorf("%s should not be a single label", p)
		}
	}
}
