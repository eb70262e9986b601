// Experiment shape tests: each test asserts (and logs, for
// EXPERIMENTS.md) the qualitative claim the paper makes — who wins, what
// is shared, what grows — rather than absolute times, which the bench
// harness measures.
package strudel_test

import (
	"strings"
	"testing"

	"strudel/internal/baseline"
	"strudel/internal/constraints"
	"strudel/internal/core"
	"strudel/internal/dynamic"
	"strudel/internal/graph"
	"strudel/internal/ivm"
	"strudel/internal/mediator"
	"strudel/internal/obs"
	"strudel/internal/schema"
	"strudel/internal/sites"
	"strudel/internal/struql"
	"strudel/internal/synth"
	"strudel/internal/wrapper/bibtex"
)

func TestE1_SiteStatsTable(t *testing.T) {
	// Paper (§5.1): internal AT&T site = 115-line query, 17 templates
	// (380 lines), ~400 member pages; external site: no new queries, 5
	// changed templates.
	spec := sites.OrgSite(60, 4, 8, 10)
	res, err := core.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	in := res.Versions["internal"]
	t.Logf("E1 orgsite internal: %s", in.Stats)
	t.Logf("E1 paper:            query: 115 lines; templates: 17 (380 lines)")
	if in.Stats.Templates != 17 {
		t.Errorf("templates = %d, want 17", in.Stats.Templates)
	}
	if spec.Versions[0].Queries[0] != spec.Versions[1].Queries[0] {
		t.Error("external must not add queries")
	}
}

func TestE1_PaperScale(t *testing.T) {
	// The paper's full scale: ~400 member home pages.
	spec := sites.OrgSite(400, 21, 41, 51)
	res, err := core.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	in := res.Versions["internal"]
	persons := 0
	for oid := range in.Output.PageFiles {
		if strings.HasPrefix(string(oid), "PersonPage(") {
			persons++
		}
	}
	if persons != 400 {
		t.Errorf("person pages = %d, want 400", persons)
	}
	t.Logf("E1 at paper scale: %s", in.Stats)
	if !in.ChecksPass {
		t.Errorf("constraints failed at scale: %+v", in.Checks)
	}
}

func TestE2_SiteStatsTable(t *testing.T) {
	// Paper (§5.1): mff homepage = 48-line query, 13 templates (202 lines).
	res, err := core.Build(sites.Homepage(25))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Versions["internal"].Stats
	t.Logf("E2 homepage internal: %s", st)
	t.Logf("E2 paper:             query: 48 lines; templates: 13 (202 lines)")
	if st.QueryLines < 24 || st.QueryLines > 96 {
		t.Errorf("query lines = %d, want same order as 48", st.QueryLines)
	}
}

func TestE3_SiteStatsTable(t *testing.T) {
	// Paper (§5.1): CNN = 44-line query, 9 templates, ~300 articles;
	// sports-only = +2 predicates, same templates.
	res, err := core.Build(sites.CNN(300))
	if err != nil {
		t.Fatal(err)
	}
	gen := res.Versions["general"].Stats
	t.Logf("E3 cnn general: %s", gen)
	t.Logf("E3 paper:       query: 44 lines; templates: 9; ~300 articles")
	gq := struql.MustParse(sites.CNNQuery)
	sq := struql.MustParse(sites.CNNSportsQuery)
	extra := 0
	for i := range gq.Blocks {
		extra += len(sq.Blocks[i].Where) - len(gq.Blocks[i].Where)
	}
	if extra != 2 {
		t.Errorf("sports delta = %d predicates, want 2", extra)
	}
}

func TestE7_WorkCounts(t *testing.T) {
	// Dynamic evaluation computes only the browsed pages; static
	// evaluation pays for the whole site. Count the work.
	q := struql.MustParse(sites.CNNQuery)
	spec := sites.CNN(120)
	med, err := mediator.New(spec.Sources...)
	if err != nil {
		t.Fatal(err)
	}
	data, err := med.Warehouse()
	if err != nil {
		t.Fatal(err)
	}
	r, err := struql.Eval(q, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	staticPages := 0
	for _, oid := range r.Graph.Nodes() {
		if strings.Contains(string(oid), "(") {
			staticPages++
		}
	}
	ev := dynamic.NewEvaluator(schema.Build(q), data)
	m := &obs.ServeMetrics{}
	ev.Obs = m
	cur := dynamic.PageRef{Fn: "FrontPage"}
	for c := 0; c < 10; c++ {
		pd, err := ev.Page(cur)
		if err != nil {
			t.Fatal(err)
		}
		links := ev.Links(pd)
		if len(links) == 0 {
			break
		}
		cur = links[c%len(links)]
	}
	computed := int(m.PagesComputed.Load())
	t.Logf("E7: static site objects = %d; dynamic 10-click session computed %d pages (%d queries)",
		staticPages, computed, m.QueriesRun.Load())
	if computed >= staticPages {
		t.Errorf("dynamic session computed %d pages, static site has %d — dynamic should be lazy",
			computed, staticPages)
	}
}

func TestE8_IncrementalMatchesFullAndSkips(t *testing.T) {
	spec := sites.Homepage(100)
	med, err := mediator.New(spec.Sources...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := med.Warehouse(); err != nil {
		t.Fatal(err)
	}
	data := med.DataGraph()
	version := &spec.Versions[0]
	m := &obs.IVMMetrics{}
	em := &obs.EvalMetrics{}
	site, err := ivm.NewSite(version, data, &core.Options{Eval: em}, m)
	if err != nil {
		t.Fatal(err)
	}
	updated := data.Copy()
	updated.AddToCollection("Publications", "new1")
	updated.AddEdge("new1", "title", graph.NewString("New"))
	updated.AddEdge("new1", "year", graph.NewInt(2000))
	before := em.WhereEvals.Load()
	if err := site.Apply(updated, mediator.Diff(data, updated)); err != nil {
		t.Fatal(err)
	}
	full, err := core.BuildVersion(version, updated)
	if err != nil {
		t.Fatal(err)
	}
	if d := mediator.Diff(full.SiteGraph, site.SiteGraph()); !d.Empty() {
		t.Errorf("incremental site graph differs from full rebuild: %+v", d)
	}
	for name, want := range full.Output.Pages {
		if site.Output().Pages[name] != want {
			t.Errorf("page %s differs from full rebuild", name)
		}
	}
	evals := em.WhereEvals.Load() - before
	t.Logf("E8: rows inserted = %d, seeded evaluations = %d, blocks re-evaluated = %d, full rebuilds = %d",
		m.RowsInserted.Load(), evals, m.BlocksReevaluated.Load(), m.FullRebuilds.Load())
	if m.DeltasApplied.Load() != 1 || m.FullRebuilds.Load() != 0 {
		t.Errorf("deltas applied = %d, full rebuilds = %d; want one incremental apply",
			m.DeltasApplied.Load(), m.FullRebuilds.Load())
	}
	if m.BlocksReevaluated.Load() != 0 || m.SitesReevaluated.Load() != 0 || m.RowsRemoved.Load() != 0 {
		t.Errorf("additive delta re-evaluated %d blocks, %d sites and removed %d rows",
			m.BlocksReevaluated.Load(), m.SitesReevaluated.Load(), m.RowsRemoved.Load())
	}
	// Only the publications block may work. Its four construction sites
	// (membership, x -> l -> v, year, category) take 1+3+2+1 seeds and
	// derive 1+2+1+0 rows: the new paper has no category. The Me, patent
	// and project blocks each have a "-> l ->" site that would seed on
	// both added edges if the delta were not routed past them.
	if m.RowsInserted.Load() != 4 || evals != 7 {
		t.Errorf("rows inserted = %d, seeded evaluations = %d; want 4 and 7 (publications block only)",
			m.RowsInserted.Load(), evals)
	}
}

func TestE9_SecondVersionShares(t *testing.T) {
	spec := sites.OrgSite(40, 3, 6, 8)
	med, err := mediator.New(spec.Sources...)
	if err != nil {
		t.Fatal(err)
	}
	data, err := med.Warehouse()
	if err != nil {
		t.Fatal(err)
	}
	first, err := core.BuildVersion(&spec.Versions[0], data)
	if err != nil {
		t.Fatal(err)
	}
	second, err := core.RenderVersion(&spec.Versions[1], first.Queries, first.SiteGraph)
	if err != nil {
		t.Fatal(err)
	}
	if second.SiteGraph != first.SiteGraph {
		t.Error("second version must reuse the site graph")
	}
	t.Logf("E9: first version pages = %d, second (render-only) pages = %d",
		first.Stats.Pages, second.Stats.Pages)
}

func TestFig8_SpecSizeTable(t *testing.T) {
	// Fig. 8's x-axis (structural complexity): declarative spec size
	// grows by a constant ~7 lines per grouping dimension, while the
	// procedural generator grows by a hand-written loop nest (~25 lines
	// per dimension in internal/baseline — see ProceduralGrouped and
	// ProceduralHomepage).
	for _, dims := range []int{1, 2, 4, 8} {
		q := baseline.GroupedQuery("Publications", dims)
		lines := len(strings.Split(strings.TrimSpace(q), "\n"))
		parsed := struql.MustParse(q)
		t.Logf("Fig8: dims=%d → query lines=%d, link clauses=%d", dims, lines, parsed.LinkClauseCount())
	}
}

func TestE6_IndexedAgreesWithNaive(t *testing.T) {
	// Correctness precondition of the E6 speed comparison.
	g, err := bibtex.Load(synth.Bibliography(120, "e6"), bibtex.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, qs := range e6Queries {
		q := struql.MustParse(qs)
		ri, err := struql.Eval(q, g.Copy().Freeze(), nil)
		if err != nil {
			t.Fatal(err)
		}
		rn, err := struql.NaiveEval(q, g)
		if err != nil {
			t.Fatal(err)
		}
		if ri.Graph.Dump() != rn.Graph.Dump() {
			t.Errorf("E6: indexed and naive disagree on %s", qs)
		}
	}
}

func TestE12_ThreeCheckersAgree(t *testing.T) {
	q := struql.MustParse(sites.HomepageQuery)
	data, err := sites.HomepageData(60)
	if err != nil {
		t.Fatal(err)
	}
	ix := data.Freeze()
	r, err := struql.Eval(q, ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := schema.Build(q)
	c, err := constraints.Parse(`every PaperPresentation reachable from CategoryPage via "Paper"`)
	if err != nil {
		t.Fatal(err)
	}
	static := c.CheckStatic(s)
	dataRes := c.CheckData(s, ix)
	site := c.CheckSite(r.Graph)
	t.Logf("E12: static=%s data=%s site=%s", static.Verdict, dataRes.Verdict, site.Verdict)
	if dataRes.Verdict != site.Verdict {
		t.Errorf("data-level (%s: %s) and site-level (%s: %s) checks disagree",
			dataRes.Verdict, dataRes.Reason, site.Verdict, site.Reason)
	}
	if static.Verdict == constraints.Violated && site.Verdict == constraints.Verified {
		t.Error("static checker must stay sound")
	}
}
