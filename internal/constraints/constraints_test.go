package constraints

import (
	"strings"
	"testing"

	"strudel/internal/graph"
	"strudel/internal/schema"
	"strudel/internal/struql"
)

const fig3Query = `
create RootPage(), AbstractsPage()
link RootPage() -> "Abstracts" -> AbstractsPage()

where Publications(x)
create AbstractPage(x), PaperPresentation(x)
link PaperPresentation(x) -> "Abstract" -> AbstractPage(x),
     AbstractsPage() -> "Abstract" -> AbstractPage(x)
{
  where x -> l -> v
  link AbstractPage(x) -> l -> v,
       PaperPresentation(x) -> l -> v
}
{
  where x -> "year" -> y
  create YearPage(y)
  link YearPage(y) -> "Year" -> y,
       YearPage(y) -> "Paper" -> PaperPresentation(x),
       RootPage() -> "YearPage" -> YearPage(y)
}
{
  where x -> "category" -> c
  create CategoryPage(c)
  link CategoryPage(c) -> "Category" -> c,
       CategoryPage(c) -> "Paper" -> PaperPresentation(x),
       RootPage() -> "CategoryPage" -> CategoryPage(c)
}
`

// dataGraph builds publication data; withOrphan adds a publication that
// has neither year nor category and so is unreachable in the site.
func dataGraph(withOrphan bool) *graph.Graph {
	g := graph.New()
	add := func(oid graph.OID, year int64, cat string) {
		g.AddToCollection("Publications", oid)
		g.AddEdge(oid, "title", graph.NewString("T-"+string(oid)))
		if year > 0 {
			g.AddEdge(oid, "year", graph.NewInt(year))
		}
		if cat != "" {
			g.AddEdge(oid, "category", graph.NewString(cat))
		}
	}
	add("pub1", 1997, "web")
	add("pub2", 1998, "web")
	if withOrphan {
		g.AddToCollection("Publications", "pub3")
		g.AddEdge("pub3", "title", graph.NewString("orphaned"))
		// no year, no category, no month
	} else {
		g.AddEdge("pub1", "month", graph.NewString("Sep"))
		g.AddEdge("pub2", "month", graph.NewString("Oct"))
	}
	return g
}

func buildSite(t *testing.T, data *graph.Graph) (*schema.Schema, *graph.Graph) {
	t.Helper()
	q := struql.MustParse(fig3Query)
	r, err := struql.Eval(q, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	return schema.Build(q), r.Graph
}

func TestStaticVerifiedReachability(t *testing.T) {
	s, _ := buildSite(t, dataGraph(false))
	c := Reachability{From: "AbstractsPage", To: "AbstractPage", Path: struql.MustParsePathExpr(`"Abstract"`)}
	r := c.CheckStatic(s)
	if r.Verdict != Verified {
		t.Errorf("verdict = %v (%s), want verified", r.Verdict, r.Reason)
	}
}

func TestStaticUnknownForDataDependentReachability(t *testing.T) {
	// "All paper presentation pages are reachable from a category page"
	// (the paper's example constraint): holds only if every publication
	// has a category, which the schema alone cannot decide.
	s, _ := buildSite(t, dataGraph(false))
	c := Reachability{From: "CategoryPage", To: "PaperPresentation", Path: struql.MustParsePathExpr(`"Paper"`)}
	if r := c.CheckStatic(s); r.Verdict != Unknown {
		t.Errorf("verdict = %v (%s), want unknown", r.Verdict, r.Reason)
	}
}

func TestStaticViolatedStructurally(t *testing.T) {
	s, _ := buildSite(t, dataGraph(false))
	// AbstractsPage always exists, and no "zz"-labeled schema path from
	// YearPage can reach it.
	c := Reachability{From: "YearPage", To: "AbstractsPage", Path: struql.MustParsePathExpr(`"zz"`)}
	if r := c.CheckStatic(s); r.Verdict != Violated {
		t.Errorf("verdict = %v (%s), want violated", r.Verdict, r.Reason)
	}
}

func TestDataCheckAgreesWithSiteCheck(t *testing.T) {
	paper := Reachability{From: "CategoryPage", To: "PaperPresentation", Path: struql.MustParsePathExpr(`"Paper"`)}
	for _, orphan := range []bool{false, true} {
		s, site := buildSite(t, dataGraph(orphan))
		data := dataGraph(orphan)
		dr := paper.CheckData(s, data)
		sr := paper.CheckSite(site)
		if dr.Verdict != sr.Verdict {
			t.Errorf("orphan=%v: data=%v (%s) site=%v (%s)", orphan, dr.Verdict, dr.Reason, sr.Verdict, sr.Reason)
		}
		if orphan {
			if dr.Verdict != Violated {
				t.Fatalf("orphan: data verdict = %v (%s)", dr.Verdict, dr.Reason)
			}
			if len(dr.Witnesses) != 1 || dr.Witnesses[0] != "PaperPresentation(pub3)" {
				t.Errorf("data witnesses = %v", dr.Witnesses)
			}
			if len(sr.Witnesses) != 1 || sr.Witnesses[0] != "PaperPresentation(pub3)" {
				t.Errorf("site witnesses = %v", sr.Witnesses)
			}
		}
	}
}

func TestMultiHopDataCheck(t *testing.T) {
	// Reachability from the root via a two-hop star path.
	c := Reachability{From: "RootPage", To: "PaperPresentation", Path: struql.MustParsePathExpr(`_*`)}
	s, site := buildSite(t, dataGraph(true))
	dr := c.CheckData(s, dataGraph(true))
	sr := c.CheckSite(site)
	if dr.Verdict != Violated || sr.Verdict != Violated {
		t.Errorf("data=%v (%s), site=%v (%s), want violated (orphan pub3)", dr.Verdict, dr.Reason, sr.Verdict, sr.Reason)
	}
	if len(dr.Witnesses) != 1 || dr.Witnesses[0] != "PaperPresentation(pub3)" {
		t.Errorf("witnesses = %v", dr.Witnesses)
	}
	// Without the orphan everything is reachable.
	s2, site2 := buildSite(t, dataGraph(false))
	if r := c.CheckData(s2, dataGraph(false)); r.Verdict != Verified {
		t.Errorf("no-orphan data verdict = %v (%s)", r.Verdict, r.Reason)
	}
	if r := c.CheckSite(site2); r.Verdict != Verified {
		t.Errorf("no-orphan site verdict = %v (%s)", r.Verdict, r.Reason)
	}
}

func TestAttributeExistsStatic(t *testing.T) {
	s, _ := buildSite(t, dataGraph(false))
	// YearPage always links its Year value: guaranteed by construction.
	if r := (AttributeExists{Set: "YearPage", Label: "Year"}).CheckStatic(s); r.Verdict != Verified {
		t.Errorf("YearPage/Year = %v (%s), want verified", r.Verdict, r.Reason)
	}
	// month comes through an arc variable: the schema cannot decide.
	if r := (AttributeExists{Set: "PaperPresentation", Label: "month"}).CheckStatic(s); r.Verdict != Unknown {
		t.Errorf("PaperPresentation/month = %v (%s), want unknown", r.Verdict, r.Reason)
	}
	// No edge from RootPage can ever carry "zzz", and RootPage always exists.
	if r := (AttributeExists{Set: "RootPage", Label: "zzz"}).CheckStatic(s); r.Verdict != Violated {
		t.Errorf("RootPage/zzz = %v (%s), want violated", r.Verdict, r.Reason)
	}
}

func TestAttributeExistsDataAndSite(t *testing.T) {
	c := AttributeExists{Set: "PaperPresentation", Label: "month"}
	s, site := buildSite(t, dataGraph(true))
	dr := c.CheckData(s, dataGraph(true))
	if dr.Verdict != Violated {
		t.Fatalf("data verdict = %v (%s)", dr.Verdict, dr.Reason)
	}
	// pub1, pub2, pub3 all lack month in the orphan dataset.
	if len(dr.Witnesses) != 3 {
		t.Errorf("witnesses = %v", dr.Witnesses)
	}
	sr := c.CheckSite(site)
	if sr.Verdict != Violated || len(sr.Witnesses) != 3 {
		t.Errorf("site verdict = %v, witnesses = %v", sr.Verdict, sr.Witnesses)
	}
	// With months present everywhere, both agree on verified.
	s2, site2 := buildSite(t, dataGraph(false))
	if r := c.CheckData(s2, dataGraph(false)); r.Verdict != Verified {
		t.Errorf("data verdict = %v (%s)", r.Verdict, r.Reason)
	}
	if r := c.CheckSite(site2); r.Verdict != Verified {
		t.Errorf("site verdict = %v (%s)", r.Verdict, r.Reason)
	}
}

func TestConnectedChecks(t *testing.T) {
	s, site := buildSite(t, dataGraph(false))
	c := Connected{Root: "RootPage"}
	if r := c.CheckSite(site); r.Verdict != Verified {
		t.Errorf("site connected = %v (%s)", r.Verdict, r.Reason)
	}
	// Static is conservative: PaperPresentation reachability depends on
	// data, so the static check must not claim Verified.
	if r := c.CheckStatic(s); r.Verdict != Unknown {
		t.Errorf("static connected = %v (%s), want unknown", r.Verdict, r.Reason)
	}
	if r := c.CheckData(s, dataGraph(false)); r.Verdict != Verified {
		t.Errorf("data connected = %v (%s)", r.Verdict, r.Reason)
	}
	// With the orphan the site is disconnected and all three notice.
	s2, site2 := buildSite(t, dataGraph(true))
	if r := c.CheckSite(site2); r.Verdict != Violated {
		t.Errorf("site connected orphan = %v", r.Verdict)
	}
	if r := c.CheckData(s2, dataGraph(true)); r.Verdict != Violated {
		t.Errorf("data connected orphan = %v (%s)", r.Verdict, r.Reason)
	}
}

func TestEmptyTargetSetIsVerified(t *testing.T) {
	s, site := buildSite(t, dataGraph(false))
	_ = s
	c := Reachability{From: "RootPage", To: "NoSuchThing", Path: struql.MustParsePathExpr(`_*`)}
	if r := c.CheckSite(site); r.Verdict != Verified {
		t.Errorf("empty set site = %v", r.Verdict)
	}
}

func TestSelfReachabilityViaEmptyPath(t *testing.T) {
	s, _ := buildSite(t, dataGraph(false))
	c := Reachability{From: "YearPage", To: "YearPage", Path: struql.MustParsePathExpr(`_*`)}
	if r := c.CheckStatic(s); r.Verdict != Verified {
		t.Errorf("self reachability = %v (%s)", r.Verdict, r.Reason)
	}
}

func TestParseConstraints(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`every PaperPresentation reachable from CategoryPage via "Paper"`,
			`every PaperPresentation reachable from CategoryPage via "Paper"`},
		{`every YearPage has "Year"`, `every YearPage has "Year"`},
		{`connected from RootPage`, `connected from RootPage`},
		{`every P reachable from R via ("a"|"b")*`, `every P reachable from R via ("a"|"b")*`},
	}
	for _, c := range cases {
		got, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		if got.String() != c.want {
			t.Errorf("Parse(%q) = %s, want %s", c.src, got, c.want)
		}
	}
	for _, bad := range []string{"", "every x", "gibberish", `every X has Year`, `every X reachable from Y via (((`} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestCheckAll(t *testing.T) {
	_, site := buildSite(t, dataGraph(true))
	cs := []Constraint{
		Connected{Root: "RootPage"},
		AttributeExists{Set: "YearPage", Label: "Year"},
	}
	ok, results := CheckAll(cs, site)
	if ok {
		t.Error("orphan site should fail CheckAll")
	}
	if results[0].Verdict != Violated || results[1].Verdict != Verified {
		t.Errorf("results = %v / %v", results[0].Verdict, results[1].Verdict)
	}
}

func TestMembersOfPrefersCollection(t *testing.T) {
	g := graph.New()
	g.AddToCollection("Roots", "A()")
	g.AddNode("Roots(x)")
	members := membersOf(g, "Roots")
	if len(members) != 1 || members[0] != "A()" {
		t.Errorf("membersOf = %v, want collection members", members)
	}
	prefix := membersOf(g, "A")
	if len(prefix) != 1 || prefix[0] != "A()" {
		t.Errorf("membersOf prefix = %v", prefix)
	}
}

func TestVerdictStrings(t *testing.T) {
	if Verified.String() != "verified" || Violated.String() != "violated" || Unknown.String() != "unknown" {
		t.Error("verdict names wrong")
	}
}

func TestReasonMentionsWitnessCount(t *testing.T) {
	s, _ := buildSite(t, dataGraph(true))
	c := Reachability{From: "CategoryPage", To: "PaperPresentation", Path: struql.MustParsePathExpr(`"Paper"`)}
	r := c.CheckData(s, dataGraph(true))
	if !strings.Contains(r.Reason, "1 data rows") {
		t.Errorf("reason = %q", r.Reason)
	}
}
