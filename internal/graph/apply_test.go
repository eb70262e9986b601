package graph_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"strudel/internal/graph"
	"strudel/internal/qgen"
)

// changeOf is the reference diff of two graphs as a Change: whole-set
// differences of their nodes, edges, memberships and collections.
func changeOf(old, new *graph.Graph) graph.Change {
	var c graph.Change
	c.AddedNodes, c.RemovedNodes = setDiff(old.Nodes(), new.Nodes(), func(a, b graph.OID) int {
		return strings.Compare(string(a), string(b))
	})
	c.AddedEdges, c.RemovedEdges = setDiff(old.AllEdges(), new.AllEdges(), graph.CompareEdges)
	c.AddedMembers, c.RemovedMembers = setDiff(members(old), members(new), graph.CompareMemberships)
	c.AddedColls, c.RemovedColls = setDiff(old.CollectionNames(), new.CollectionNames(), strings.Compare)
	return c
}

func members(g *graph.Graph) []graph.Membership {
	var ms []graph.Membership
	for _, coll := range g.CollectionNames() {
		for _, oid := range g.Collection(coll) {
			ms = append(ms, graph.Membership{Coll: coll, OID: oid})
		}
	}
	return ms
}

// setDiff returns b−a and a−b, each sorted by cmp.
func setDiff[T comparable](a, b []T, cmp func(x, y T) int) (added, removed []T) {
	in := func(s []T) map[T]bool {
		m := make(map[T]bool, len(s))
		for _, x := range s {
			m[x] = true
		}
		return m
	}
	as, bs := in(a), in(b)
	for _, x := range b {
		if !as[x] {
			added = append(added, x)
		}
	}
	for _, x := range a {
		if !bs[x] {
			removed = append(removed, x)
		}
	}
	slices.SortFunc(added, cmp)
	slices.SortFunc(removed, cmp)
	return added, removed
}

// rebuilt copies g without the named collections.
func rebuilt(g *graph.Graph, drop ...string) *graph.Graph {
	out := graph.New()
	for _, oid := range g.Nodes() {
		out.AddNode(oid)
	}
	out.AddEdges(g.AllEdges())
	for _, coll := range g.CollectionNames() {
		if slices.Contains(drop, coll) {
			continue
		}
		out.DeclareCollection(coll)
		for _, oid := range g.Collection(coll) {
			out.AddToCollection(coll, oid)
		}
	}
	return out
}

// removeNode deletes a node with every edge into or out of it and every
// membership, so the graph stays free of dangling targets.
func removeNode(g *graph.Graph, oid graph.OID) {
	for _, e := range g.AllEdges() {
		if e.From == oid || e.To == graph.NewNode(oid) {
			g.RemoveEdge(e.From, e.Label, e.To)
		}
	}
	for _, coll := range g.CollectionsOf(oid) {
		g.RemoveFromCollection(coll, oid)
	}
	g.RemoveNode(oid)
}

// mutate applies one random edit to g and returns the result (a new
// graph when a collection is dropped). The vocabulary covers what Apply
// must splice: new and vanishing labels, atoms of every kind and nodes,
// isolated nodes, and declared collections that appear, empty or go.
func mutate(r *qgen.Rand, g *graph.Graph, step int) *graph.Graph {
	nodes := g.Nodes()
	node := func() graph.OID {
		if len(nodes) == 0 || r.N(4) == 0 {
			return graph.OID(fmt.Sprintf("x%d", step))
		}
		return nodes[r.N(len(nodes))]
	}
	labels := g.Labels()
	label := func() string {
		if len(labels) == 0 || r.N(5) == 0 {
			return fmt.Sprintf("l%d", step)
		}
		return labels[r.N(len(labels))]
	}
	value := func() graph.Value {
		switch r.N(8) {
		case 0:
			return graph.NewInt(int64(r.N(12)))
		case 1:
			return graph.NewFloat(float64(r.N(9)) / 2)
		case 2:
			return graph.NewBool(r.N(2) == 0)
		case 3:
			return graph.NewURL(r.Pick("http://a", "http://b", fmt.Sprintf("http://u%d", step)))
		case 4:
			return graph.NewFile(graph.FileType(r.N(4)), r.Pick("a.ps", "b.html"))
		case 5:
			return graph.NewNode(node())
		}
		return graph.NewString(r.Pick("t1", "e", "fresh"+fmt.Sprint(step), "id03"))
	}
	edges := g.AllEdges()
	colls := g.CollectionNames()
	switch r.N(10) {
	case 0, 1:
		g.AddEdge(node(), label(), value())
	case 2:
		if len(edges) > 0 {
			e := edges[r.N(len(edges))]
			g.RemoveEdge(e.From, e.Label, e.To)
		}
	case 3: // the last edge of a label
		if len(labels) > 0 {
			l := labels[r.N(len(labels))]
			for _, e := range edges {
				if e.Label == l {
					g.RemoveEdge(e.From, e.Label, e.To)
				}
			}
		}
	case 4: // the last edge into an atom
		if len(edges) > 0 {
			to := edges[r.N(len(edges))].To
			for _, e := range edges {
				if e.To == to {
					g.RemoveEdge(e.From, e.Label, e.To)
				}
			}
		}
	case 5:
		if len(nodes) > 0 {
			removeNode(g, nodes[r.N(len(nodes))])
		}
	case 6:
		g.AddNode(node())
	case 7:
		coll := fmt.Sprintf("C%d", step)
		if len(colls) > 0 && r.N(3) != 0 {
			coll = colls[r.N(len(colls))]
		}
		if oid := node(); g.InCollection(coll, oid) {
			g.RemoveFromCollection(coll, oid)
		} else {
			g.AddToCollection(coll, oid)
		}
	case 8:
		g.DeclareCollection(fmt.Sprintf("E%d", step))
	case 9: // empty a collection, or drop it
		if len(colls) == 0 {
			break
		}
		coll := colls[r.N(len(colls))]
		if r.N(2) == 0 {
			return rebuilt(g, coll)
		}
		for _, oid := range g.Collection(coll) {
			g.RemoveFromCollection(coll, oid)
		}
	}
	return g
}

// assertSameSnapshot pins Apply to Freeze: the same SGB2 bytes, and the
// same derived structures, which SGB2 does not carry.
func assertSameSnapshot(t *testing.T, what string, got, want *graph.Frozen) {
	t.Helper()
	if !bytes.Equal(graph.AppendFrozen(nil, got), graph.AppendFrozen(nil, want)) {
		t.Fatalf("%s: Apply's snapshot encodes differently from Freeze's", what)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Apply's snapshot differs from Freeze's in %v", what, graph.FrozenFieldDiff(got, want))
	}
}

func TestApplyMatchesFreeze(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		r := qgen.NewRand(seed)
		g := qgen.Graph(seed)
		f := g.Freeze()
		for step := 0; step < 60; step++ {
			next := g.Copy()
			for k := 1 + r.N(4); k > 0; k-- {
				next = mutate(r, next, step)
			}
			c := changeOf(g, next)
			before := graph.AppendFrozen(nil, f)
			got, err := f.Apply(c)
			what := fmt.Sprintf("seed %d step %d", seed, step)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if c.Empty() && got != f {
				t.Fatalf("%s: an empty change did not return the receiver", what)
			}
			if !bytes.Equal(graph.AppendFrozen(nil, f), before) {
				t.Fatalf("%s: Apply modified its receiver", what)
			}
			assertSameSnapshot(t, what, got, next.Freeze())
			g, f = next, got
		}
	}
}

// TestApplyEdgeCases pins the splices the random walk may reach only by
// chance: the last edge of a label, an atom and a node going, a new
// label, atom and node arriving, a declared collection emptied and
// dropped, and the empty change.
func TestApplyEdgeCases(t *testing.T) {
	base := func() *graph.Graph {
		g := graph.New()
		g.AddToCollection("C", "a")
		g.AddToCollection("C", "b")
		g.DeclareCollection("Empty")
		g.AddEdge("a", "only", graph.NewString("lone"))
		g.AddEdge("a", "name", graph.NewString("A"))
		g.AddEdge("b", "name", graph.NewString("B"))
		g.AddEdge("b", "link", graph.NewNode("c"))
		g.AddEdge("c", "n", graph.NewInt(3))
		g.AddNode("iso")
		return g
	}
	edits := map[string]func(g *graph.Graph) *graph.Graph{
		"last edge of a label and an atom": func(g *graph.Graph) *graph.Graph {
			g.RemoveEdge("a", "only", graph.NewString("lone"))
			return g
		},
		"last edge into a node, then the node": func(g *graph.Graph) *graph.Graph {
			removeNode(g, "c")
			return g
		},
		"isolated node leaves": func(g *graph.Graph) *graph.Graph {
			g.RemoveNode("iso")
			return g
		},
		"new label, atom and node": func(g *graph.Graph) *graph.Graph {
			g.AddEdge("z", "aaa", graph.NewString("0first"))
			g.AddEdge("a", "zzz", graph.NewNode("0node"))
			return g
		},
		"collection emptied": func(g *graph.Graph) *graph.Graph {
			g.RemoveFromCollection("C", "a")
			g.RemoveFromCollection("C", "b")
			return g
		},
		"collections dropped and declared": func(g *graph.Graph) *graph.Graph {
			g = rebuilt(g, "C", "Empty")
			g.DeclareCollection("New")
			return g
		},
		"everything goes": func(g *graph.Graph) *graph.Graph { return graph.New() },
	}
	for name, edit := range edits {
		t.Run(name, func(t *testing.T) {
			g := base()
			f := g.Freeze()
			next := edit(g.Copy())
			got, err := f.Apply(changeOf(g, next))
			if err != nil {
				t.Fatal(err)
			}
			assertSameSnapshot(t, name, got, next.Freeze())
			// And back again.
			back, err := got.Apply(changeOf(next, g))
			if err != nil {
				t.Fatal(err)
			}
			assertSameSnapshot(t, name+", undone", back, f)
		})
	}
	f := base().Freeze()
	if got, err := f.Apply(graph.Change{}); err != nil || got != f {
		t.Fatalf("empty change: %p, %v; want the receiver", got, err)
	}
}

// TestApplyRejectsInconsistentChange pins the errors of a change that
// does not describe a graph, or breaks Change's ordering rules.
func TestApplyRejectsInconsistentChange(t *testing.T) {
	g := graph.New()
	g.AddToCollection("C", "a")
	g.AddEdge("a", "x", graph.NewString("s"))
	g.AddEdge("b", "y", graph.NewNode("a"))
	f := g.Freeze()
	e := func(from graph.OID, label string, to graph.Value) graph.Edge {
		return graph.Edge{From: from, Label: label, To: to}
	}
	cases := map[string]graph.Change{
		"removed edge absent":        {RemovedEdges: []graph.Edge{e("a", "x", graph.NewString("t"))}},
		"added edge present":         {AddedEdges: []graph.Edge{e("a", "x", graph.NewString("s"))}},
		"added edge from no node":    {AddedEdges: []graph.Edge{e("q", "x", graph.NewString("s"))}},
		"added edge into no node":    {AddedEdges: []graph.Edge{e("a", "x", graph.NewNode("q"))}},
		"removed node keeps edges":   {RemovedNodes: []graph.OID{"a"}},
		"removed node keeps in-edge": {RemovedNodes: []graph.OID{"a"}, RemovedEdges: []graph.Edge{e("a", "x", graph.NewString("s"))}, RemovedMembers: []graph.Membership{{Coll: "C", OID: "a"}}},
		"removed node is member": {RemovedNodes: []graph.OID{"a"}, RemovedEdges: []graph.Edge{
			e("a", "x", graph.NewString("s")), e("b", "y", graph.NewNode("a"))}},
		"added node present":           {AddedNodes: []graph.OID{"a"}},
		"member of no collection":      {AddedMembers: []graph.Membership{{Coll: "D", OID: "a"}}},
		"removed membership absent":    {RemovedMembers: []graph.Membership{{Coll: "C", OID: "b"}}},
		"removed collection not empty": {RemovedColls: []string{"C"}},
		"unsorted":                     {AddedNodes: []graph.OID{"z", "y"}},
	}
	want := graph.AppendFrozen(nil, f)
	for name, c := range cases {
		if got, err := f.Apply(c); err == nil {
			t.Errorf("%s: Apply returned %v, want an error", name, got.Stats())
		}
		if !bytes.Equal(graph.AppendFrozen(nil, f), want) {
			t.Fatalf("%s: a refused change modified the receiver", name)
		}
	}
}
