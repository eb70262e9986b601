package repo_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"strudel/internal/graph"
	"strudel/internal/qgen"
	"strudel/internal/repo"
)

// TestIndexedMatchesGraphSource checks every access path of the
// repository's snapshot — frozen from a qgen graph, and adopted from its
// SGB2 bytes — against references scanned from the map graph's edges,
// answer by answer, compared as sorted sets. (The name predates the
// scanning source the references once came from; internal/graph's
// TestFrozenMatchesGraph makes the same checks on its own graph.)
func TestIndexedMatchesGraphSource(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1998} {
		g := qgen.Graph(seed)
		frozen := g.Freeze()
		decoded, err := repo.DecodeBinaryFrozen(repo.EncodeBinaryFrozen(frozen))
		if err != nil {
			t.Fatal(err)
		}
		for name, f := range map[string]*graph.Frozen{"snapshot": frozen, "adopted": decoded} {
			t.Run(fmt.Sprintf("seed%d/%s", seed, name), func(t *testing.T) { compareSnapshot(t, f, g) })
		}
	}
}

func compareSnapshot(t *testing.T, got *graph.Frozen, g *graph.Graph) {
	t.Helper()
	eq := func(what string, g, w any) {
		t.Helper()
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s = %v, want %v", what, g, w)
		}
	}
	edges := g.AllEdges()
	scan := func(keep func(graph.Edge) bool) []graph.Edge {
		var out []graph.Edge
		for _, e := range edges {
			if keep(e) {
				out = append(out, e)
			}
		}
		return out
	}
	eq("NumNodes", got.NumNodes(), g.NumNodes())
	eq("NumEdges", got.NumEdges(), g.NumEdges())
	eq("Nodes", sortedOIDs(got.Nodes()), sortedOIDs(g.Nodes()))
	eq("Labels", sortedStrings(got.Labels()), sortedStrings(g.Labels()))
	eq("CollectionNames", sortedStrings(got.CollectionNames()), sortedStrings(g.CollectionNames()))

	nodes := append(g.Nodes(), "absent")
	for _, c := range append(g.CollectionNames(), "Absent") {
		eq("Collection("+c+")", sortedOIDs(got.Collection(c)), sortedOIDs(g.Collection(c)))
		eq("CollectionSize("+c+")", got.CollectionSize(c), g.CollectionSize(c))
		for _, n := range nodes {
			eq(fmt.Sprintf("InCollection(%s,%s)", c, n), got.InCollection(c, n), g.InCollection(c, n))
		}
	}

	labels := append(g.Labels(), "absent")
	for _, l := range labels {
		want := scan(func(e graph.Edge) bool { return e.Label == l })
		eq("EdgesLabeled("+l+")", sortedEdges(got.EdgesLabeled(l)), sortedEdges(want))
		eq("LabelCount("+l+")", got.LabelCount(l), len(want))
		sources, targets := map[graph.OID]bool{}, map[graph.Value]bool{}
		for _, e := range want {
			sources[e.From], targets[e.To] = true, true
		}
		count, s, tg := got.LabelStats(l)
		eq("LabelStats("+l+")", [3]int{count, s, tg}, [3]int{len(want), len(sources), len(targets)})
	}
	for _, n := range nodes {
		eq("Out("+string(n)+")", sortedEdges(got.Out(n)), sortedEdges(g.Out(n)))
		for _, l := range labels {
			eq(fmt.Sprintf("OutLabel(%s,%s)", n, l), sortedValues(got.OutLabel(n, l)), sortedValues(g.OutLabel(n, l)))
		}
	}

	targets := []graph.Value{graph.NewNode("absent"), graph.NewString("absent"), graph.NewInt(-1)}
	for _, n := range g.Nodes() {
		targets = append(targets, graph.NewNode(n))
	}
	for _, e := range edges {
		targets = append(targets, e.To)
	}
	for _, v := range targets {
		eq("In("+v.Key()+")", sortedEdges(got.In(v)), sortedEdges(scan(func(e graph.Edge) bool { return e.To == v })))
	}
}

func sortedStrings(in []string) []string {
	out := append([]string{}, in...)
	sort.Strings(out)
	return out
}

func sortedOIDs(in []graph.OID) []graph.OID {
	out := append([]graph.OID{}, in...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedValues(in []graph.Value) []string {
	out := make([]string, len(in))
	for i, v := range in {
		out[i] = v.Key()
	}
	sort.Strings(out)
	return out
}

func sortedEdges(in []graph.Edge) []string {
	out := make([]string, len(in))
	for i, e := range in {
		out[i] = string(e.From) + "\x00" + e.Label + "\x00" + e.To.Key()
	}
	sort.Strings(out)
	return out
}
