package struql

import (
	"strings"
	"testing"

	"strudel/internal/graph"
	"strudel/internal/obs"
)

func TestPlanStringForms(t *testing.T) {
	var nilPlan *Plan
	if got := nilPlan.String(); got != "empty" {
		t.Errorf("nil plan String = %q, want empty", got)
	}
	if got := (&Plan{}).String(); got != "empty" {
		t.Errorf("empty plan String = %q, want empty", got)
	}
	p := &Plan{Steps: []PlanStep{
		{Cond: "Items(x)", Index: 1, Access: AccessMemberScan + "[Items]", Cost: 3},
		{Cond: "y > 5", Index: 0, Access: AccessFilter, Cost: 0},
	}}
	if got := p.String(); got != `Items(x)[scan-coll[Items]]$3.0 ; y > 5[filter]$0.0` {
		t.Errorf("String = %q", got)
	}
	if p.Reordered() != 2 {
		t.Errorf("Reordered = %d, want 2", p.Reordered())
	}
	detail := p.Detail("  ")
	if !strings.Contains(detail, "(moved from #2)") || !strings.Contains(detail, "cost=3.0") {
		t.Errorf("Detail lacks move marker or cost:\n%s", detail)
	}
	p.Textual = true
	if s := p.String(); strings.Contains(s, "$") {
		t.Errorf("textual String should omit costs: %q", s)
	}
	if d := p.Detail(""); strings.Contains(d, "cost=") {
		t.Errorf("textual Detail should omit costs:\n%s", d)
	}
}

func TestExplainOutput(t *testing.T) {
	src := propertyGraph(12)
	q := MustParse(`create Root()
where Items(x), x -> "year" -> y, y > 1995
create N(x)
link Root() -> "n" -> N(x)
{ where x -> "kind" -> k link N(x) -> "k" -> k }`)
	text, err := Explain(q, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"(no conditions)",  // the Root() block has no where clause
		"scan-coll[Items]", // collection scan access path
		"seek-out[year]",   // label seek access path
		"filter",           // comparison
		"cost=",            // cost estimates present by default
		"block 2.1",        // nested block numbering
		"seek-out[kind]",   // nested block plans against inherited vars
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Explain output lacks %q:\n%s", want, text)
		}
	}
	textual, err := Explain(q, src, &Options{NoReorder: true})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(textual, "cost=") {
		t.Errorf("NoReorder Explain should omit costs:\n%s", textual)
	}
	if _, err := Explain(q, src, &Options{NoStats: true}); err != nil {
		t.Fatalf("NoStats explain: %v", err)
	}
}

func TestExplainUnschedulable(t *testing.T) {
	q := &Query{Blocks: []*Block{{
		Where:  []Cond{&CmpCond{Op: CmpGt, L: VarTerm("y"), R: ConstTerm(graph.NewInt(3))}},
		Create: []SkolemTerm{{Fn: "N"}},
	}}}
	if _, err := Explain(q, propertyGraph(4), nil); err == nil {
		t.Error("Explain of an unschedulable filter should fail")
	}
}

func TestExplainRPESeeding(t *testing.T) {
	src := propertyGraph(12).Freeze()
	q := MustParse(`where Items(x), y -> "next"+ -> x create N(y)`)
	text, err := Explain(q, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, AccessRPESeed+"[next]") {
		t.Errorf("non-nullable RPE with unbound start should seed from the label extent:\n%s", text)
	}
	// A nullable expression matches the empty path, so every node is a
	// potential start: no seeding.
	q2 := MustParse(`where Items(x), y -> "next"* -> x create N(y)`)
	text2, err := Explain(q2, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(text2, AccessRPESeed) {
		t.Errorf("nullable RPE must not seed:\n%s", text2)
	}
}

// TestPlannerMetrics checks the planner's observability counters: stats
// builds, index seeks, and reorder counts all tick during an evaluation
// that exercises them.
func TestPlannerMetrics(t *testing.T) {
	m := &obs.EvalMetrics{}
	src := propertyGraph(16).Freeze()
	// Filter textually first: the planner must move it after its binder.
	q := MustParse(`where y > 1995, Items(x), x -> "year" -> y create N(x)`)
	if _, err := Eval(q, src, &Options{Metrics: m}); err != nil {
		t.Fatal(err)
	}
	if m.StatsBuilds.Load() == 0 {
		t.Error("no statistics build recorded")
	}
	if m.IndexSeeks.Load() == 0 {
		t.Error("no index seeks recorded")
	}
	if m.ReorderedConds.Load() == 0 {
		t.Error("no reordered conditions recorded")
	}
	snap := m.Snapshot()
	for _, key := range []string{"planner_stats_builds", "planner_index_seeks", "planner_reordered_conds"} {
		if _, ok := snap[key]; !ok {
			t.Errorf("snapshot lacks %s", key)
		}
	}
}

// TestWarmStatsReuse pins the warm-statistics path: a caller-provided
// Stats is consulted instead of a fresh collection, and results are
// identical to the cold path.
func TestWarmStatsReuse(t *testing.T) {
	src := propertyGraph(16).Freeze()
	warm := CollectStats(src)
	q := MustParse(`where Items(x), x -> "year" -> y, y > 1993 create N(x) link N(x) -> "y" -> y`)
	m := &obs.EvalMetrics{}
	hot, err := Eval(q, src, &Options{Stats: warm, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if m.StatsBuilds.Load() != 0 {
		t.Errorf("warm evaluation built statistics %d times, want 0", m.StatsBuilds.Load())
	}
	cold, err := Eval(q, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hot.Graph.Dump() != cold.Graph.Dump() {
		t.Error("warm and cold statistics produced different graphs")
	}
}

// TestStatsAccessors covers the statistics accessors on both source
// kinds: the repository's own snapshot and the frozen copy of a plain
// graph source.
func TestStatsAccessors(t *testing.T) {
	g := propertyGraph(12)
	for _, src := range []Source{g, g.Freeze()} {
		s := CollectStats(src)
		year := s.Label("year")
		if year.Count != 12 || year.Sources != 12 {
			t.Errorf("%T: year stat = %+v, want 12 edges from 12 sources", src, year)
		}
		if s.FanOut(year) <= 0 || s.FanIn(year) <= 0 {
			t.Errorf("%T: year fan-out/fan-in not positive", src)
		}
		none := s.Label("no-such-label")
		if none.Count != 0 || s.FanOut(none) != 0 {
			t.Errorf("%T: unknown label stat = %+v", src, none)
		}
		if s.NumNodes == 0 || s.NumEdges == 0 {
			t.Errorf("%T: graph totals empty: %d nodes %d edges", src, s.NumNodes, s.NumEdges)
		}
	}
}

// TestIndexedLabelStats covers the repository's per-label statistics,
// answered from its snapshot.
func TestIndexedLabelStats(t *testing.T) {
	g := graph.New()
	g.AddEdge("a", "t", graph.NewNode("b"))
	g.AddEdge("a", "t", graph.NewNode("c"))
	g.AddEdge("b", "t", graph.NewNode("c"))
	ix := g.Freeze()
	count, sources, targets := ix.LabelStats("t")
	if count != 3 || sources != 2 || targets != 2 {
		t.Errorf("LabelStats(t) = %d,%d,%d, want 3,2,2", count, sources, targets)
	}
	// Cached: same answer again.
	if c2, _, _ := ix.LabelStats("t"); c2 != 3 {
		t.Errorf("cached count = %d, want 3", c2)
	}
	if c, s2, tg := ix.LabelStats("absent"); c != 0 || s2 != 0 || tg != 0 {
		t.Errorf("LabelStats(absent) = %d,%d,%d, want zeros", c, s2, tg)
	}
}

func TestNaiveCmpOps(t *testing.T) {
	one, two := graph.NewInt(1), graph.NewInt(2)
	cases := []struct {
		op   CmpOp
		l, r graph.Value
		want bool
	}{
		{CmpEq, one, one, true}, {CmpEq, one, two, false},
		{CmpNeq, one, two, true}, {CmpNeq, one, one, false},
		{CmpLt, one, two, true}, {CmpLt, two, one, false},
		{CmpLe, one, one, true}, {CmpLe, two, one, false},
		{CmpGt, two, one, true}, {CmpGt, one, two, false},
		{CmpGe, one, one, true}, {CmpGe, one, two, false},
	}
	for _, c := range cases {
		if got := naiveCmp(c.op, c.l, c.r); got != c.want {
			t.Errorf("naiveCmp(%v, %v, %v) = %v, want %v", c.op, c.l, c.r, got, c.want)
		}
	}
}

// TestNaiveEvalWithEnvComposition runs a two-query composition through
// both evaluators with shared Skolem environments: later queries must
// re-derive the earlier query's nodes identically.
func TestNaiveEvalWithEnvComposition(t *testing.T) {
	g := propertyGraph(10)
	q1 := MustParse(`where Items(x) create Page(x) link Page(x) -> "self" -> x`)
	q2 := MustParse(`where Items(x), x -> "year" -> y create Page(x) link Page(x) -> "year" -> y`)

	naiveEnv := NewSkolemEnv()
	optEnv := NewSkolemEnv()
	naiveOut := graph.New()
	optOut := graph.New()
	for _, q := range []*Query{q1, q2} {
		nr, err := NaiveEvalWithEnv(q, g, naiveEnv)
		if err != nil {
			t.Fatal(err)
		}
		naiveOut.Merge(nr.Graph)
		or, err := EvalWithEnv(q, g, optEnv, nil)
		if err != nil {
			t.Fatal(err)
		}
		optOut.Merge(or.Graph)
	}
	if naiveOut.Dump() != optOut.Dump() {
		t.Error("composed naive and optimized evaluations diverged")
	}
}

// TestNaiveEvalErrors covers the reference evaluator's error paths —
// the same contracts the optimized evaluator enforces.
func TestNaiveEvalErrors(t *testing.T) {
	g := propertyGraph(6)
	// collect of an atom value
	q := &Query{Blocks: []*Block{{
		Where: []Cond{
			&MemberCond{Coll: "Items", Var: "x"},
			&PathCond{From: VarTerm("x"), Path: MustParsePathExpr(`"year"`), To: VarTerm("y")},
		},
		Collect: []CollectExpr{{Coll: "R", Target: LinkTerm{Term: termPtr(VarTerm("y"))}}},
	}}}
	if _, err := NaiveEval(q, g); err == nil ||
		!strings.Contains(err.Error(), "collections contain objects") {
		t.Errorf("collect atom: err = %v", err)
	}
	// unschedulable filter
	q2 := &Query{Blocks: []*Block{{
		Where:  []Cond{&CmpCond{Op: CmpGt, L: VarTerm("w"), R: ConstTerm(graph.NewInt(0))}},
		Create: []SkolemTerm{{Fn: "N"}},
	}}}
	if _, err := NaiveEval(q2, g); err == nil ||
		!strings.Contains(err.Error(), "cannot schedule conditions") {
		t.Errorf("unschedulable: err = %v", err)
	}
}

func termPtr(t Term) *Term { return &t }
