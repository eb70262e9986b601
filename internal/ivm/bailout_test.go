package ivm

import (
	"errors"
	"fmt"
	"testing"

	"strudel/internal/core"
	"strudel/internal/graph"
	"strudel/internal/htmlgen"
	"strudel/internal/mediator"
	"strudel/internal/obs"
	"strudel/internal/qgen"
)

// Every bailout reason has a triggering test here, each asserting the
// same three things: the typed reason is counted in obs, the apply
// degrades to a full rebuild (FullRebuilds moves), and the degraded
// output is byte-identical to a from-scratch build of the new data.

func requireOraclePages(t *testing.T, out *htmlgen.Output, v *core.Version, data *graph.Graph, context string) {
	t.Helper()
	vr, err := core.BuildVersionWith(v, data, nil)
	if err != nil {
		t.Fatalf("%s: oracle build: %v", context, err)
	}
	if len(vr.Output.Pages) != len(out.Pages) {
		t.Fatalf("%s: page count %d, oracle %d", context, len(out.Pages), len(vr.Output.Pages))
	}
	for name, want := range vr.Output.Pages {
		if got := out.Pages[name]; got != want {
			t.Fatalf("%s: page %s diverged:\n--- maintained\n%s\n--- oracle\n%s", context, name, got, want)
		}
	}
}

func bailoutFixture(t *testing.T, m *obs.IVMMetrics) (*Site, *core.Version, *graph.Graph) {
	t.Helper()
	v := testVersion(`where Papers(x), x -> "title" -> ti
create PaperPage(x)
link PaperPage(x) -> "title" -> ti`)
	cur := qgen.Papers()
	s, err := NewSite(v, cur, nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return s, v, cur
}

func editTitles(g *graph.Graph, n int) {
	for i := 0; i < n; i++ {
		g.AddEdge(graph.OID(fmt.Sprintf("p%d", i)), "title", graph.NewString(fmt.Sprintf("alt %d", i)))
	}
}

func TestBailoutComposedQueries(t *testing.T) {
	m := &obs.IVMMetrics{}
	v := testVersion(`where Papers(x) collect Found(x)`)
	// Split into two composed queries: the second reads nothing from the
	// first, but composition alone forecloses delta propagation.
	v.Queries = []string{v.Queries[0], `where Papers(x) collect Again(x)`}
	cur := qgen.Papers()
	s, err := NewSite(v, cur, nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if s.Engine() != nil {
		t.Fatal("composed-query version must have no row-level engine")
	}
	prev := cur.Copy()
	cur.AddToCollection("Papers", "pnew")
	cur.AddEdge("pnew", "title", graph.NewString("New"))
	if err := s.Apply(cur, mediator.Diff(prev, cur)); err != nil {
		t.Fatal(err)
	}
	if got := m.Bailouts[obs.BailoutComposedQueries].Load(); got != 1 {
		t.Errorf("composed_queries bailouts = %d, want 1", got)
	}
	if got := m.FullRebuilds.Load(); got != 1 {
		t.Errorf("full rebuilds = %d, want 1", got)
	}
	requireOraclePages(t, s.Output(), v, cur, "composed queries")
}

func TestBailoutDeltaTooLarge(t *testing.T) {
	m := &obs.IVMMetrics{}
	s, v, cur := bailoutFixture(t, m)
	s.Engine().MaxDelta = 1
	prev := cur.Copy()
	editTitles(cur, 3) // 3 events > bound 1
	if err := s.Apply(cur, mediator.Diff(prev, cur)); err != nil {
		t.Fatal(err)
	}
	if got := m.Bailouts[obs.BailoutDeltaTooLarge].Load(); got != 1 {
		t.Errorf("delta_too_large bailouts = %d, want 1", got)
	}
	if got := m.FullRebuilds.Load(); got != 1 {
		t.Errorf("full rebuilds = %d, want 1", got)
	}
	requireOraclePages(t, s.Output(), v, cur, "delta too large")
	// The rebuilt engine (default bound) takes the next delta row-level.
	prev = cur.Copy()
	cur.AddEdge("p0", "title", graph.NewString("one more"))
	if err := s.Apply(cur, mediator.Diff(prev, cur)); err != nil {
		t.Fatal(err)
	}
	if got := m.DeltasApplied.Load(); got != 1 {
		t.Errorf("deltas applied after rebuild = %d, want 1", got)
	}
	requireOraclePages(t, s.Output(), v, cur, "after recovery")
}

func TestBailoutNilDelta(t *testing.T) {
	// A nil delta — change of unknown extent — must rebuild, via the
	// same too-large reason, not crash or no-op.
	m := &obs.IVMMetrics{}
	s, v, cur := bailoutFixture(t, m)
	cur.AddEdge("p0", "title", graph.NewString("unseen"))
	if err := s.Apply(cur, nil); err != nil {
		t.Fatal(err)
	}
	if got := m.Bailouts[obs.BailoutDeltaTooLarge].Load(); got != 1 {
		t.Errorf("delta_too_large bailouts = %d, want 1", got)
	}
	requireOraclePages(t, s.Output(), v, cur, "nil delta")
}

func TestBailoutEvalError(t *testing.T) {
	m := &obs.IVMMetrics{}
	s, v, cur := bailoutFixture(t, m)
	s.Engine().evalHook = func() error { return errors.New("injected evaluation failure") }
	prev := cur.Copy()
	editTitles(cur, 1)
	if err := s.Apply(cur, mediator.Diff(prev, cur)); err != nil {
		t.Fatal(err)
	}
	if got := m.Bailouts[obs.BailoutEvalError].Load(); got != 1 {
		t.Errorf("eval_error bailouts = %d, want 1", got)
	}
	if got := m.FullRebuilds.Load(); got != 1 {
		t.Errorf("full rebuilds = %d, want 1", got)
	}
	requireOraclePages(t, s.Output(), v, cur, "eval error")
}

func TestBailoutSupportUnderflow(t *testing.T) {
	m := &obs.IVMMetrics{}
	s, v, cur := bailoutFixture(t, m)
	// Corrupt the maintained refcounts: zero every edge count, so the
	// partition swap's removals drive one negative.
	for k := range s.Engine().edgeRefs {
		s.Engine().edgeRefs[k] = 0
	}
	prev := cur.Copy()
	cur.RemoveEdge("p0", "title", graph.NewString("Paper 0"))
	if err := s.Apply(cur, mediator.Diff(prev, cur)); err != nil {
		t.Fatal(err)
	}
	if got := m.Bailouts[obs.BailoutSupportUnderflow].Load(); got != 1 {
		t.Errorf("support_underflow bailouts = %d, want 1", got)
	}
	if got := m.FullRebuilds.Load(); got != 1 {
		t.Errorf("full rebuilds = %d, want 1", got)
	}
	requireOraclePages(t, s.Output(), v, cur, "support underflow")
}

func TestBailoutReasonNames(t *testing.T) {
	want := map[Reason]string{
		ReasonComposedQueries:  "composed_queries",
		ReasonDeltaTooLarge:    "delta_too_large",
		ReasonEvalError:        "eval_error",
		ReasonSupportUnderflow: "support_underflow",
	}
	for r, name := range want {
		if r.String() != name {
			t.Errorf("Reason(%d).String() = %q, want %q", r, r.String(), name)
		}
	}
	b := bail(ReasonEvalError, "ctx %d", 7)
	if b.Error() != "ivm: bailout: eval_error: ctx 7" {
		t.Errorf("Bailout.Error() = %q", b.Error())
	}
}

// TestFailedRebuildRetriesAreNotBailouts pins the accounting after a
// rebuild fails: the next apply on the engine-less single-query site is
// a rebuild retry, never a composed-queries bailout, and once the data
// fits again the retry restores an engine and a correct site.
func TestFailedRebuildRetriesAreNotBailouts(t *testing.T) {
	m := &obs.IVMMetrics{}
	v := testVersion(`where Papers(x), x -> "title" -> ti
create PaperPage(x)
link PaperPage(x) -> "title" -> ti`)
	cur := qgen.Papers()
	// Six papers fit under the guard; twenty more do not.
	s, err := NewSite(v, cur, &core.Options{MaxRows: 12}, m)
	if err != nil {
		t.Fatal(err)
	}
	good := cur.Copy()
	for i := 0; i < 20; i++ {
		oid := graph.OID(fmt.Sprintf("big%d", i))
		cur.AddToCollection("Papers", oid)
		cur.AddEdge(oid, "title", graph.NewString(fmt.Sprintf("Big %d", i)))
	}
	// A nil delta rebuilds, and the rebuild trips the guard.
	if err := s.Apply(cur, nil); err == nil {
		t.Fatal("rebuild over the row guard succeeded")
	}
	if s.Engine() != nil {
		t.Fatal("a failed rebuild left an engine behind")
	}
	prev := cur
	cur = good
	if err := s.Apply(cur, mediator.Diff(prev, cur)); err != nil {
		t.Fatal(err)
	}
	if got := m.RebuildRetries.Load(); got != 1 {
		t.Errorf("rebuild retries = %d, want 1", got)
	}
	if got := m.Bailouts[obs.BailoutComposedQueries].Load(); got != 0 {
		t.Errorf("composed_queries bailouts = %d, want 0", got)
	}
	if got := m.FullRebuilds.Load(); got != 2 {
		t.Errorf("full rebuilds = %d, want 2 (the failed one and its retry)", got)
	}
	if s.Engine() == nil {
		t.Fatal("the successful retry left no engine")
	}
	requireOraclePages(t, s.Output(), v, cur, "after retry")
}
