package mediator

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"strudel/internal/graph"
	"strudel/internal/qgen"
)

// referenceDiff is the whole-graph Diff Diff replaced: every edge of both
// versions hashed into a set, memberships likewise. It stays as the
// oracle Diff is pinned to.
func referenceDiff(old, new *graph.Graph) *Delta {
	d := &Delta{}
	oldEdges := map[graph.Edge]bool{}
	old.Edges(func(e graph.Edge) bool { oldEdges[e] = true; return true })
	new.Edges(func(e graph.Edge) bool {
		if !oldEdges[e] {
			d.AddedEdges = append(d.AddedEdges, e)
		} else {
			delete(oldEdges, e)
		}
		return true
	})
	for e := range oldEdges {
		d.RemovedEdges = append(d.RemovedEdges, e)
	}
	sortEdgeDelta(d.RemovedEdges)
	memberSet := func(g *graph.Graph) map[Membership]bool {
		set := map[Membership]bool{}
		for _, coll := range g.CollectionNames() {
			for _, m := range g.Collection(coll) {
				set[Membership{Coll: coll, OID: m}] = true
			}
		}
		return set
	}
	om, nm := memberSet(old), memberSet(new)
	for mem := range nm {
		if !om[mem] {
			d.AddedMembers = append(d.AddedMembers, mem)
		}
	}
	for mem := range om {
		if !nm[mem] {
			d.RemovedMembers = append(d.RemovedMembers, mem)
		}
	}
	sortMemberDelta(d.AddedMembers)
	sortMemberDelta(d.RemovedMembers)
	return d
}

func sameDelta(a, b *Delta) bool { return fmt.Sprint(*a) == fmt.Sprint(*b) }

// reversed rebuilds g with every node's edges and every collection's
// members inserted in the opposite order: the same graph, with every
// insertion-ordered list different.
func reversed(g *graph.Graph) *graph.Graph {
	out := graph.New()
	for _, oid := range g.Nodes() {
		out.AddNode(oid)
	}
	es := g.AllEdges()
	for i := len(es) - 1; i >= 0; i-- {
		out.AddEdge(es[i].From, es[i].Label, es[i].To)
	}
	for _, coll := range g.CollectionNames() {
		out.DeclareCollection(coll)
		ms := g.Collection(coll)
		for i := len(ms) - 1; i >= 0; i-- {
			out.AddToCollection(coll, ms[i])
		}
	}
	for _, oid := range g.Nodes() {
		if !out.HasNode(oid) {
			out.RemoveNode(oid)
		}
	}
	return out
}

// TestDiffMatchesReference pins Diff to the whole-graph reference over
// the edit storm's script (TestDeltaEditStormDifferential in package
// ivm) on its papers graph and on qgen graphs, and over rebuilds whose
// lists are all reordered.
func TestDiffMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		cur := qgen.Papers()
		if seed > 3 {
			cur.Merge(qgen.Graph(seed))
		}
		r := qgen.NewRand(seed)
		for i := 0; i < 60; i++ {
			prev := cur.Copy()
			for k := 1 + r.N(3); k > 0; k-- {
				qgen.Edit(r, cur)
			}
			if got, want := Diff(prev, cur), referenceDiff(prev, cur); !sameDelta(got, want) {
				t.Fatalf("seed %d edit %d: Diff\n%v\nreference\n%v", seed, i, got, want)
			}
			if got, want := Diff(cur, prev), referenceDiff(cur, prev); !sameDelta(got, want) {
				t.Fatalf("seed %d edit %d, reversed: Diff\n%v\nreference\n%v", seed, i, got, want)
			}
			if d := Diff(cur, reversed(cur)); !d.Empty() {
				t.Fatalf("seed %d edit %d: reordered lists diff as %v", seed, i, d)
			}
		}
	}
}

// danglingSource loads a copy of its graph that keeps the dangling edge
// targets RemoveNode left in it (Graph.Copy would re-create them).
type danglingSource struct{ g *graph.Graph }

func (s *danglingSource) load() (*graph.Graph, error) {
	c := s.g.Copy()
	for _, oid := range c.Nodes() {
		if !s.g.HasNode(oid) {
			c.RemoveNode(oid)
		}
	}
	return c, nil
}

// assertDataIsMerge pins the mediator's committed snapshot to Freeze of
// its merged contributions, field for field.
func assertDataIsMerge(t *testing.T, m *Mediator, what string) {
	t.Helper()
	want := m.DataGraph().Freeze()
	if !bytes.Equal(graph.AppendFrozen(nil, m.Data()), graph.AppendFrozen(nil, want)) ||
		!reflect.DeepEqual(m.Data(), want) {
		t.Fatalf("%s: Data() is not the snapshot of the merged contributions", what)
	}
}

// TestRefreshDataMatchesFreeze runs the edit storm's script against
// three sources that share nodes (one of them keeps dangling targets)
// and pins, after every Refresh, Data() to Freeze of the merge and the
// delta to the reference diff of the merged graphs before and after.
func TestRefreshDataMatchesFreeze(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		a := &mutableSource{g: qgen.Papers()}
		b := &mutableSource{g: qgen.Graph(seed)}
		b.g.AddEdge("p1", "topic", graph.NewString("db"))
		c := &danglingSource{g: graph.New()}
		c.g.AddToCollection("Papers", "p2")
		m, err := New(Source{Name: "a", Load: a.load}, Source{Name: "b", Load: b.load},
			Source{Name: "c", Load: c.load})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Warehouse(); err != nil {
			t.Fatal(err)
		}
		r := qgen.NewRand(seed)
		for i := 0; i < 50; i++ {
			before := m.DataGraph()
			var names []string
			for _, s := range []struct {
				name string
				g    *graph.Graph
			}{{"a", a.g}, {"b", b.g}, {"c", c.g}} {
				if r.N(2) == 0 {
					qgen.Edit(r, s.g)
					names = append(names, s.name)
				}
			}
			d, err := m.Refresh(names...)
			what := fmt.Sprintf("seed %d round %d (%v)", seed, i, names)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			assertDataIsMerge(t, m, what)
			if want := referenceDiff(before, m.DataGraph()); !sameDelta(d, want) {
				t.Fatalf("%s: delta\n%v\nnet diff of the merged graphs\n%v", what, d, want)
			}
		}
	}
}

// TestRefreshDanglingTargets pins Data() to the merge when a
// contribution holds edges into nodes it removed: the merge re-creates
// such a node, so it enters and leaves the data graph with those edges.
func TestRefreshDanglingTargets(t *testing.T) {
	src := &danglingSource{g: graph.New()}
	src.g.AddEdge("y", "to", graph.NewNode("x"))
	src.g.RemoveNode("x")
	m, err := New(Source{Name: "c", Load: src.load})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Warehouse(); err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		what string
		edit func(g *graph.Graph)
	}{
		{"the last edge into a dangling node goes", func(g *graph.Graph) {
			g.RemoveEdge("y", "to", graph.NewNode("x"))
		}},
		{"an edge into a dangling node arrives", func(g *graph.Graph) {
			g.AddEdge("y", "to", graph.NewNode("z"))
			g.RemoveNode("z")
		}},
		{"the dangling node becomes a node", func(g *graph.Graph) { g.AddNode("z") }},
		{"the node dangles again", func(g *graph.Graph) { g.RemoveNode("z") }},
	}
	for _, step := range steps {
		step.edit(src.g)
		if _, err := m.Refresh("c"); err != nil {
			t.Fatalf("%s: %v", step.what, err)
		}
		assertDataIsMerge(t, m, step.what)
	}
}

// TestRefreshOverlappingSources pins the net delta when two sources
// contribute the same edge: one dropping it changes nothing, the second
// dropping it removes it, and both adding it back adds it once.
func TestRefreshOverlappingSources(t *testing.T) {
	shared := graph.Edge{From: "pub1", Label: "title", To: graph.NewString("Strudel")}
	a, b := &mutableSource{g: pubsGraph()}, &mutableSource{g: pubsGraph()}
	m, err := New(Source{Name: "a", Load: a.load}, Source{Name: "b", Load: b.load})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Warehouse(); err != nil {
		t.Fatal(err)
	}
	has := func() bool {
		return len(m.Data().OutLabel(shared.From, shared.Label)) == 1
	}

	a.g.RemoveEdge(shared.From, shared.Label, shared.To)
	d, err := m.Refresh("a")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() || !has() {
		t.Fatalf("A dropped an edge B still contributes: delta %v, edge kept %v", d, has())
	}
	assertDataIsMerge(t, m, "A dropped")

	b.g.RemoveEdge(shared.From, shared.Label, shared.To)
	if d, err = m.Refresh("b"); err != nil {
		t.Fatal(err)
	}
	if len(d.RemovedEdges) != 1 || d.RemovedEdges[0] != shared || d.Size() != 1 || has() {
		t.Fatalf("B dropped the last copy: delta %v, edge kept %v", d, has())
	}
	assertDataIsMerge(t, m, "B dropped")

	a.g.AddEdge(shared.From, shared.Label, shared.To)
	b.g.AddEdge(shared.From, shared.Label, shared.To)
	if d, err = m.Refresh("a", "b"); err != nil {
		t.Fatal(err)
	}
	if len(d.AddedEdges) != 1 || d.AddedEdges[0] != shared || d.Size() != 1 || !has() {
		t.Fatalf("both added it back: delta %v, edge present %v", d, has())
	}
	assertDataIsMerge(t, m, "both added")
}

// papersLoad returns a Load for a site of n papers, each with a title,
// a year and an author node in collections, whose paper 0 alternates
// between two titles on every load: each Refresh is a one-edge retitle.
func papersLoad(n int) func() (*graph.Graph, error) {
	loads := 0
	return func() (*graph.Graph, error) {
		loads++
		g := graph.NewWithCapacity(2*n, 4*n)
		for i := 0; i < n; i++ {
			p, who := graph.OID(fmt.Sprintf("pub%d", i)), graph.OID(fmt.Sprintf("person%d", i%97))
			title := fmt.Sprintf("Title %d", i)
			if i == 0 && loads%2 == 0 {
				title = "Retitled"
			}
			g.AddToCollection("Publications", p)
			g.AddToCollection("People", who)
			g.AddEdge(p, "title", graph.NewString(title))
			g.AddEdge(p, "year", graph.NewInt(int64(1990+i%9)))
			g.AddEdge(p, "author", graph.NewNode(who))
			g.AddEdge(who, "name", graph.NewString(fmt.Sprintf("Person %d", i%97)))
		}
		return g, nil
	}
}

// TestRefreshCostsTheEdit pins that a one-edge reload costs the edit,
// not the site: the allocations of Refresh beyond the source's own Load
// grow by less than maxGrowth when the site grows 4×. Re-freezing the
// merge and hashing every edge into a diff (per-node sort closures in
// Freeze and Edges) made them grow with the site: 3.7× for the 4× site.
func TestRefreshCostsTheEdit(t *testing.T) {
	const maxGrowth = 1.5
	extra := func(n int) float64 {
		load := papersLoad(n)
		m, err := New(Source{Name: "pubs", Load: load})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Warehouse(); err != nil {
			t.Fatal(err)
		}
		refresh := testing.AllocsPerRun(20, func() {
			if d, err := m.Refresh("pubs"); err != nil || d.Size() != 2 {
				t.Fatalf("Refresh = %v, %v; want a retitle", d, err)
			}
		})
		alone := testing.AllocsPerRun(20, func() { load() })
		return refresh - alone
	}
	small, large := extra(500), extra(2000)
	t.Logf("Refresh beyond Load: %.0f allocations at 500 papers, %.0f at 2000", small, large)
	if growth := large / small; growth > maxGrowth {
		t.Fatalf("Refresh beyond Load: %.0f allocations at 500 papers, %.0f at 2000 (%.2f×, want ≤ %.1f×)",
			small, large, growth, maxGrowth)
	}
}
