package repo_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"strudel/internal/graph"
	"strudel/internal/qgen"
	"strudel/internal/repo"
	"strudel/internal/struql"
)

// TestIndexedMatchesGraphSource checks every access path of the
// repository — on its snapshot and on the map-graph fallback — against
// the plain scans of struql.GraphSource, answer by answer, compared as
// sorted sets.
func TestIndexedMatchesGraphSource(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1998} {
		g := qgen.Graph(seed)
		want := struql.NewGraphSource(g)
		for name, ix := range map[string]*repo.Indexed{
			"snapshot": repo.NewIndexed(g),
			"fallback": repo.NewIndexedUnfrozen(g),
		} {
			t.Run(fmt.Sprintf("seed%d/%s", seed, name), func(t *testing.T) {
				if name == "snapshot" && ix.Frozen() == nil {
					t.Fatal("no snapshot built")
				}
				if name == "fallback" && ix.Frozen() != nil {
					t.Fatal("fallback has a snapshot")
				}
				compareSources(t, ix, want)
			})
		}
	}
}

func compareSources(t *testing.T, got *repo.Indexed, want struql.GraphSource) {
	t.Helper()
	eq := func(what string, g, w any) {
		t.Helper()
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s = %v, want %v", what, g, w)
		}
	}
	eq("NumNodes", got.NumNodes(), want.NumNodes())
	eq("NumEdges", got.NumEdges(), want.NumEdges())
	eq("Nodes", sortedOIDs(got.Nodes()), sortedOIDs(want.Nodes()))
	eq("Labels", sortedStrings(got.Labels()), sortedStrings(want.Labels()))
	eq("CollectionNames", sortedStrings(got.CollectionNames()), sortedStrings(want.CollectionNames()))

	nodes := append(want.Nodes(), "absent")
	for _, c := range append(want.CollectionNames(), "Absent") {
		eq("Collection("+c+")", sortedOIDs(got.Collection(c)), sortedOIDs(want.Collection(c)))
		eq("CollectionSize("+c+")", got.CollectionSize(c), want.CollectionSize(c))
		for _, n := range nodes {
			eq(fmt.Sprintf("InCollection(%s,%s)", c, n), got.InCollection(c, n), want.InCollection(c, n))
		}
	}

	labels := append(want.Labels(), "absent")
	stats := struql.CollectStats(want)
	for _, l := range labels {
		eq("EdgesLabeled("+l+")", sortedEdges(got.EdgesLabeled(l)), sortedEdges(want.EdgesLabeled(l)))
		eq("LabelCount("+l+")", got.LabelCount(l), want.LabelCount(l))
		count, sources, targets := got.LabelStats(l)
		eq("LabelStats("+l+")", struql.LabelStat{Count: count, Sources: sources, Targets: targets}, stats.Label(l))
	}
	for _, n := range nodes {
		eq("Out("+string(n)+")", sortedEdges(got.Out(n)), sortedEdges(want.Out(n)))
		for _, l := range labels {
			eq(fmt.Sprintf("OutLabel(%s,%s)", n, l), sortedValues(got.OutLabel(n, l)), sortedValues(want.OutLabel(n, l)))
		}
	}

	targets := []graph.Value{graph.NewNode("absent"), graph.NewString("absent"), graph.NewInt(-1)}
	for _, n := range want.Nodes() {
		targets = append(targets, graph.NewNode(n))
		for _, e := range want.Out(n) {
			targets = append(targets, e.To)
		}
	}
	for _, v := range targets {
		eq("In("+v.Key()+")", sortedEdges(got.In(v)), sortedEdges(want.In(v)))
	}
}

// TestNewIndexedBuildsNoIndex pins that construction only wraps the
// graph: every index is the snapshot, built by the first read.
func TestNewIndexedBuildsNoIndex(t *testing.T) {
	g := qgen.Graph(42)
	var sink *repo.Indexed
	allocs := testing.AllocsPerRun(100, func() { sink = repo.NewIndexed(g) })
	if allocs > 2 {
		t.Errorf("NewIndexed allocates %.0f times, want <= 2", allocs)
	}
	if sink.NumEdges() != g.NumEdges() {
		t.Errorf("NumEdges = %d, want %d", sink.NumEdges(), g.NumEdges())
	}
}

// TestNewIndexedFrozenThawsOnlyOnDemand checks that an adopted snapshot
// answers reads directly and that Graph reconstructs the same graph.
func TestNewIndexedFrozenThawsOnlyOnDemand(t *testing.T) {
	g := qgen.Graph(7)
	f := g.Freeze()
	ix := repo.NewIndexedFrozen(f)
	if ix.Frozen() != f {
		t.Fatal("adopted snapshot not returned by Frozen")
	}
	if ix.NumEdges() != g.NumEdges() {
		t.Errorf("NumEdges = %d, want %d", ix.NumEdges(), g.NumEdges())
	}
	if got := ix.Graph().Dump(); got != g.Dump() {
		t.Errorf("thawed graph differs:\n%s\nvs\n%s", got, g.Dump())
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
