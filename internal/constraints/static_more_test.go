package constraints

import (
	"testing"

	"strudel/internal/graph"
	"strudel/internal/schema"
	"strudel/internal/struql"
)

func TestResolveSetThroughCollect(t *testing.T) {
	// A constraint may name an output collection; it resolves to the
	// collected Skolem function.
	q := struql.MustParse(`
where Pubs(x)
create Page(x)
link Page(x) -> "self" -> x
collect AllPages(Page(x))
`)
	s := schema.Build(q)
	fn, ok := resolveSet(s, "AllPages")
	if !ok || fn != "Page" {
		t.Errorf("resolveSet(AllPages) = %q, %v", fn, ok)
	}
	if _, ok := resolveSet(s, "NoSuchSet"); ok {
		t.Error("unknown set should not resolve")
	}
	// Constraints written against the collection behave like ones against
	// the function.
	c := AttributeExists{Set: "AllPages", Label: "self"}
	if r := c.CheckStatic(s); r.Verdict != Verified {
		t.Errorf("collect-resolved static check = %v (%s)", r.Verdict, r.Reason)
	}
}

func TestUnknownSetsReturnUnknown(t *testing.T) {
	q := struql.MustParse(`where Pubs(x) create Page(x) link Page(x) -> "t" -> x`)
	s := schema.Build(q)
	checks := []Constraint{
		Reachability{From: "Ghost", To: "Page", Path: struql.MustParsePathExpr(`_*`)},
		Reachability{From: "Page", To: "Ghost", Path: struql.MustParsePathExpr(`_*`)},
		AttributeExists{Set: "Ghost", Label: "t"},
		Connected{Root: "Ghost"},
	}
	for _, c := range checks {
		if r := c.CheckStatic(s); r.Verdict != Unknown {
			t.Errorf("%s: static = %v, want unknown", c, r.Verdict)
		}
	}
	data := graph.New()
	for _, c := range checks {
		if _, isConn := c.(Connected); isConn {
			continue // Connected aggregates per-node results
		}
		if r := c.CheckData(s, data); r.Verdict != Unknown {
			t.Errorf("%s: data = %v, want unknown", c, r.Verdict)
		}
	}
}

func TestArcVariablePathsWithRegexAreInexpressible(t *testing.T) {
	// A regex predicate over an arc-variable edge cannot be written as a
	// StruQL condition: the data check must not claim Violated from it.
	q := struql.MustParse(`
create Root()
where Items(x), x -> l -> v
link Root() -> l -> Page(x)
`)
	s := schema.Build(q)
	g := graph.New()
	g.AddToCollection("Items", "i1")
	g.AddEdge("i1", "weird", graph.NewInt(1))
	c := Reachability{From: "Root", To: "Page", Path: struql.MustParsePathExpr(`~"we.*"`)}
	r := c.CheckData(s, g)
	if r.Verdict == Violated {
		t.Errorf("regex-over-arc-variable path must not yield Violated: %s", r.Reason)
	}
}

func TestStepForVariants(t *testing.T) {
	litEdge := schema.Edge{Label: struql.LabelSpec{Lit: "a"}}
	varEdge := schema.Edge{Label: struql.LabelSpec{Var: "l", IsVar: true}}
	lit := struql.MustParsePathExpr(`"a"`)
	other := struql.MustParsePathExpr(`"b"`)
	regex := struql.MustParsePathExpr(`~"x.*"`)
	if _, ok := stepFor(litEdge, lit); !ok {
		t.Error("literal label should match its predicate")
	}
	if _, ok := stepFor(litEdge, other); ok {
		t.Error("mismatched literal should not step")
	}
	st, ok := stepFor(varEdge, lit)
	if !ok || st.labelReq != "a" {
		t.Errorf("var edge vs literal: %+v, %v", st, ok)
	}
	st, ok = stepFor(varEdge, regex)
	if !ok || !st.inexpressible {
		t.Errorf("var edge vs regex: %+v, %v", st, ok)
	}
}

func TestSameArgs(t *testing.T) {
	if !sameArgs([]string{"a", "b"}, []string{"a", "b"}) {
		t.Error("equal args")
	}
	if sameArgs([]string{"a"}, []string{"a", "b"}) || sameArgs([]string{"a"}, []string{"b"}) {
		t.Error("unequal args")
	}
}

func TestPathGuaranteedRejectsLabelRequirements(t *testing.T) {
	// A path step that imposes l = "x" cannot be verified syntactically.
	q := struql.MustParse(`
where Items(i), i -> l -> v
create Hub(), Spoke(i)
link Hub() -> l -> Spoke(i)
`)
	s := schema.Build(q)
	c := Reachability{From: "Hub", To: "Spoke", Path: struql.MustParsePathExpr(`"specific"`)}
	if r := c.CheckStatic(s); r.Verdict == Verified {
		t.Error("label requirement should block static verification")
	}
}
