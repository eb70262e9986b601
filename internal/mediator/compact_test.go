package mediator

import (
	"fmt"
	"testing"

	"strudel/internal/graph"
)

func TestDeltaCompactCancelsOpposingPairs(t *testing.T) {
	e := graph.Edge{From: "a", Label: "l", To: graph.NewString("v")}
	m := Membership{Coll: "C", OID: "a"}
	d := &Delta{
		AddedEdges:     []graph.Edge{e, e}, // repeats dedupe
		RemovedEdges:   []graph.Edge{e},    // one add survives: net +1
		AddedMembers:   []Membership{m},
		RemovedMembers: []Membership{m}, // net zero: drops entirely
	}
	d.Compact()
	if len(d.AddedEdges) != 1 || len(d.RemovedEdges) != 0 {
		t.Errorf("edges after compact: +%d -%d, want +1 -0", len(d.AddedEdges), len(d.RemovedEdges))
	}
	if len(d.AddedMembers) != 0 || len(d.RemovedMembers) != 0 {
		t.Errorf("members after compact: +%d -%d, want none", len(d.AddedMembers), len(d.RemovedMembers))
	}
}

func TestDeltaCompactNetRemoval(t *testing.T) {
	e := graph.Edge{From: "a", Label: "l", To: graph.NewInt(1)}
	// Present initially, then add/remove/remove composed: net removed.
	d := &Delta{RemovedEdges: []graph.Edge{e}}
	d.Merge(&Delta{AddedEdges: []graph.Edge{e}})
	d.Merge(&Delta{RemovedEdges: []graph.Edge{e}})
	d.Compact()
	if len(d.AddedEdges) != 0 || len(d.RemovedEdges) != 1 {
		t.Errorf("net effect: +%d -%d, want +0 -1", len(d.AddedEdges), len(d.RemovedEdges))
	}
}

// TestDeltaCompactEquivalentToDiff asserts compaction of a composed
// event stream equals the direct diff of the endpoint graphs — the
// soundness property the incremental consumers rely on.
func TestDeltaCompactEquivalentToDiff(t *testing.T) {
	start := graph.New()
	start.AddToCollection("C", "a")
	start.AddEdge("a", "x", graph.NewInt(1))

	// Walk the graph through several states, composing per-step diffs.
	cur := start.Copy()
	composed := &Delta{}
	step := func(edit func(*graph.Graph)) {
		prev := cur.Copy()
		edit(cur)
		composed.Merge(Diff(prev, cur))
	}
	step(func(g *graph.Graph) { g.AddEdge("a", "x", graph.NewInt(2)) })
	step(func(g *graph.Graph) { g.RemoveEdge("a", "x", graph.NewInt(1)) })
	step(func(g *graph.Graph) { g.AddEdge("a", "x", graph.NewInt(1)) })
	step(func(g *graph.Graph) { g.RemoveEdge("a", "x", graph.NewInt(1)) })
	step(func(g *graph.Graph) { g.RemoveFromCollection("C", "a") })
	step(func(g *graph.Graph) { g.AddToCollection("C", "b") })

	composed.Compact()
	direct := Diff(start, cur)
	if fmt.Sprint(composed) != fmt.Sprint(direct) {
		t.Errorf("compacted composition:\n%v\ndirect diff:\n%v", composed, direct)
	}
}
