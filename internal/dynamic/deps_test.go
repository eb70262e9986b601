package dynamic

import (
	"testing"

	"strudel/internal/graph"
	"strudel/internal/mediator"
	"strudel/internal/struql"
)

func TestBlockDepsRefinesArcVariables(t *testing.T) {
	// where Publications(x) { where x -> l -> v ... } depends on edges of
	// Publications members, not on every edge in the database.
	q := struql.MustParse(`
where Publications(x)
create P(x)
{ where x -> l -> v link P(x) -> l -> v }
`)
	deps := BlockDeps(q.Blocks[0])
	if deps["*"] {
		t.Errorf("deps = %v; collection-constrained arc variable should not be *", deps)
	}
	if !deps["edges-of:Publications"] || !deps["coll:Publications"] {
		t.Errorf("deps = %v", deps)
	}
	// An unconstrained arc variable still depends on everything.
	q2 := struql.MustParse(`where a -> l -> v create N(a)`)
	if !BlockDeps(q2.Blocks[0])["*"] {
		t.Error("unconstrained arc variable must depend on *")
	}
}

func TestAffectedByMembershipRefinement(t *testing.T) {
	data := graph.New()
	data.AddToCollection("Publications", "pub1")
	data.AddToCollection("Patents", "pat1")
	data.AddEdge("pub1", "title", graph.NewString("T"))
	data.AddEdge("pat1", "number", graph.NewString("US1"))
	src := data.Freeze()
	deps := map[string]bool{"edges-of:Publications": true, "coll:Publications": true}

	// An edge on a patent does not affect a publications-only block.
	patDelta := &mediator.Delta{AddedEdges: []graph.Edge{
		{From: "pat1", Label: "year", To: graph.NewInt(1998)},
	}}
	if AffectedBy(deps, patDelta, src) {
		t.Error("patent edge should not affect a publications block")
	}
	// An edge on a publication does.
	pubDelta := &mediator.Delta{AddedEdges: []graph.Edge{
		{From: "pub1", Label: "year", To: graph.NewInt(1998)},
	}}
	if !AffectedBy(deps, pubDelta, src) {
		t.Error("publication edge should affect the block")
	}
	// New membership in the watched collection affects it too.
	memDelta := &mediator.Delta{AddedMembers: []mediator.Membership{{Coll: "Publications", OID: "pubX"}}}
	if !AffectedBy(deps, memDelta, src) {
		t.Error("membership change should affect the block")
	}
	// Label-specific dependencies.
	labelDeps := map[string]bool{"label:year": true}
	if !AffectedBy(labelDeps, pubDelta, src) {
		t.Error("label:year should match a year edge")
	}
	if AffectedBy(labelDeps, &mediator.Delta{AddedEdges: []graph.Edge{
		{From: "x", Label: "other", To: graph.NewInt(1)},
	}}, src) {
		t.Error("label:year should not match an other edge")
	}
	// "*" matches any non-empty delta and nothing on an empty one.
	star := map[string]bool{"*": true}
	if !AffectedBy(star, pubDelta, src) || AffectedBy(star, &mediator.Delta{}, src) {
		t.Error("* semantics wrong")
	}
}

func TestInvalidateUsesMembershipRefinement(t *testing.T) {
	// The evaluator's page cache survives a swap whose delta changes only
	// objects outside the collections its queries read.
	data := testData()
	ev, _ := newEvaluator(t, data)
	if _, err := ev.Page(PageRef{Fn: "RootPage"}); err != nil {
		t.Fatal(err)
	}
	swap := func(d *mediator.Delta) int {
		kept, dropped := ev.SwapData(data.Freeze(), d)
		if kept+dropped != 1 {
			t.Fatalf("swap counted %d kept + %d dropped pages, the cache held 1", kept, dropped)
		}
		return dropped
	}
	patDelta := &mediator.Delta{AddedEdges: []graph.Edge{
		{From: "unrelatedObject", Label: "title", To: graph.NewString("x")},
	}}
	if dropped := swap(patDelta); dropped != 0 {
		t.Errorf("dropped %d pages for an edge outside Publications", dropped)
	}
	// A new "note" edge is invisible to the root page's queries (they
	// read only Publications membership and year edges) — still cached.
	noteDelta := &mediator.Delta{AddedEdges: []graph.Edge{
		{From: "pub1", Label: "note", To: graph.NewString("x")},
	}}
	if dropped := swap(noteDelta); dropped != 0 {
		t.Errorf("dropped %d pages for a note edge the root never reads", dropped)
	}
	// A year edge is load-bearing for the root's YearPage links.
	yearDelta := &mediator.Delta{AddedEdges: []graph.Edge{
		{From: "pub1", Label: "year", To: graph.NewInt(1901)},
	}}
	if dropped := swap(yearDelta); dropped == 0 {
		t.Error("a year edge should invalidate the root page")
	}
}
