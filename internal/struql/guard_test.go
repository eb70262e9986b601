package struql

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"strudel/internal/ddl"
	"strudel/internal/graph"
	"strudel/internal/obs"
)

// guardGraph builds n Items nodes cross-linkable into n² rows, plus a
// next-cycle for path closures.
func guardGraph(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		oid := graph.OID(fmt.Sprintf("n%03d", i))
		g.AddToCollection("Items", oid)
		g.AddEdge(oid, "year", graph.NewInt(int64(1990+i)))
		g.AddEdge(oid, "next", graph.NewNode(graph.OID(fmt.Sprintf("n%03d", (i+1)%n))))
	}
	return g
}

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestMaxRowsTripsOnCrossProduct: an unselective condition pair blows
// past the row cap and returns a typed, diagnosable error instead of
// consuming n² memory.
func TestMaxRowsTripsOnCrossProduct(t *testing.T) {
	q := mustParse(t, `where Items(x), Items(y) create P(x, y)`)
	src := guardGraph(40) // 1600 rows unguarded
	m := &obs.EvalMetrics{}
	_, err := Eval(q, src, &Options{MaxRows: 100, Metrics: m})
	if err == nil {
		t.Fatal("want ResourceExhausted")
	}
	var re *ResourceExhausted
	if !errors.As(err, &re) {
		t.Fatalf("err = %v (%T), want *ResourceExhausted", err, err)
	}
	if re.Limit != LimitRows || re.Used <= re.Max || re.Max != 100 {
		t.Errorf("guard = %+v", re)
	}
	if m.GuardTrips[obs.GuardRows].Load() == 0 {
		t.Error("rows guard trip not counted")
	}
	// The same query under a generous cap matches the unguarded result.
	unguarded, err := Eval(q, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := Eval(q, src, &Options{MaxRows: 10000})
	if err != nil {
		t.Fatalf("generous cap tripped: %v", err)
	}
	if ddl.Print(unguarded.Graph) != ddl.Print(guarded.Graph) {
		t.Error("a non-tripping guard changed the result")
	}
}

// TestMaxNFAStatesTripsOnClosure: a Kleene closure over a large cycle
// visits every (node, NFA-state) product state; a tight cap converts
// the walk into a typed failure and counts the trip.
func TestMaxNFAStatesTripsOnClosure(t *testing.T) {
	q := mustParse(t, `where Items(x), x -> ("next")* -> y create R(x, y)`)
	src := guardGraph(50)
	m := &obs.EvalMetrics{}
	_, err := Eval(q, src, &Options{MaxNFAStates: 10, Metrics: m})
	if err == nil {
		t.Fatal("want ResourceExhausted")
	}
	var re *ResourceExhausted
	if !errors.As(err, &re) {
		t.Fatalf("err = %v (%T), want *ResourceExhausted", err, err)
	}
	if re.Limit != LimitNFAStates || re.Max != 10 {
		t.Errorf("guard = %+v", re)
	}
	if m.GuardTrips[obs.GuardNFAStates].Load() == 0 {
		t.Error("nfa-states guard trip not counted")
	}
	guarded, err := Eval(q, src, &Options{MaxNFAStates: 100000})
	if err != nil {
		t.Fatalf("generous cap tripped: %v", err)
	}
	unguarded, _ := Eval(q, src, nil)
	if ddl.Print(unguarded.Graph) != ddl.Print(guarded.Graph) {
		t.Error("a non-tripping guard changed the result")
	}
}

// TestDeadlineTripsAndIsTyped: an already-expired deadline stops
// evaluation at the first polling point with a typed error.
func TestDeadlineTripsAndIsTyped(t *testing.T) {
	q := mustParse(t, `where Items(x), Items(y) create P(x, y)`)
	src := guardGraph(30)
	m := &obs.EvalMetrics{}
	_, err := Eval(q, src, &Options{Deadline: time.Now().Add(-time.Second), Metrics: m})
	if err == nil {
		t.Fatal("want ResourceExhausted")
	}
	var re *ResourceExhausted
	if !errors.As(err, &re) || re.Limit != LimitDeadline {
		t.Fatalf("err = %v, want deadline ResourceExhausted", err)
	}
	if m.GuardTrips[obs.GuardDeadline].Load() == 0 {
		t.Error("deadline guard trip not counted")
	}
	// A future deadline leaves the result untouched.
	ok, err := Eval(q, src, &Options{Deadline: time.Now().Add(time.Minute)})
	if err != nil {
		t.Fatalf("future deadline tripped: %v", err)
	}
	unguarded, _ := Eval(q, src, nil)
	if ddl.Print(unguarded.Graph) != ddl.Print(ok.Graph) {
		t.Error("a non-tripping deadline changed the result")
	}
}

// TestGuardsInsideNotSubqueries: forked sub-evaluations inherit the
// guards, so a runaway negation cannot dodge them.
func TestGuardsInsideNotSubqueries(t *testing.T) {
	// y != z needs both vars bound, so the sub-evaluation must build the
	// full Items×Items relation before it can filter.
	q := mustParse(t, `where Items(x), not(Items(y), Items(z), y != z) create P(x)`)
	src := guardGraph(40)
	_, err := Eval(q, src, &Options{MaxRows: 50})
	var re *ResourceExhausted
	if !errors.As(err, &re) || re.Limit != LimitRows {
		t.Fatalf("err = %v, want rows ResourceExhausted from the not(...) body", err)
	}
}
