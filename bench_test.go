// Package strudel_test is the experiment harness: one benchmark per
// table, figure, or quantitative claim in the paper's evaluation (see
// DESIGN.md's per-experiment index and EXPERIMENTS.md for paper-vs-
// measured results). Run with:
//
//	go test -bench=. -benchmem .
package strudel_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"strudel/internal/baseline"
	"strudel/internal/constraints"
	"strudel/internal/core"
	"strudel/internal/dynamic"
	"strudel/internal/graph"
	"strudel/internal/ivm"
	"strudel/internal/mediator"
	"strudel/internal/schema"
	"strudel/internal/sites"
	"strudel/internal/struql"
	"strudel/internal/synth"
	"strudel/internal/wrapper/bibtex"
)

// --- shared fixtures ---

func bibData(b *testing.B, n int) *graph.Graph {
	b.Helper()
	g, err := bibtex.Load(synth.Bibliography(n, "bench"), bibtex.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func mustEval(b *testing.B, q *struql.Query, src struql.Source) *graph.Graph {
	b.Helper()
	r, err := struql.Eval(q, src, nil)
	if err != nil {
		b.Fatal(err)
	}
	return r.Graph
}

// --- Fig. 8: site-creation cost vs data size × structural complexity ---
//
// The paper's Fig. 8 positions tools by data size and structural
// complexity (measured in link clauses / CGI scripts). These benches
// sweep both axes for the declarative pipeline and the hand-written
// procedural generator; EXPERIMENTS.md reads the crossover off the
// results.

func BenchmarkFig8_Strudel(b *testing.B) {
	for _, size := range []int{100, 400, 1600} {
		for _, dims := range []int{1, 2, 4, 8} {
			q := struql.MustParse(baseline.GroupedQuery("Publications", dims))
			data := bibData(b, size).Freeze()
			b.Run(fmt.Sprintf("items=%d/links=%d", size, q.LinkClauseCount()), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					mustEval(b, q, data)
				}
			})
		}
	}
}

func BenchmarkFig8_Baseline(b *testing.B) {
	for _, size := range []int{100, 400, 1600} {
		for _, dims := range []int{1, 2, 4, 8} {
			data := bibData(b, size)
			b.Run(fmt.Sprintf("items=%d/dims=%d", size, dims), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					baseline.ProceduralGrouped(data, "Publications", dims)
				}
			})
		}
	}
}

// --- E1: the AT&T-Research-style organization site (§5.1) ---

func BenchmarkE1_OrgSiteBuild(b *testing.B) {
	for _, people := range []int{100, 400} {
		spec := sites.OrgSite(people, people/20+1, people/10+1, people/8+1)
		b.Run(fmt.Sprintf("people=%d", people), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E2: the mff personal homepage (§5.1) ---

func BenchmarkE2_HomepageBuild(b *testing.B) {
	spec := sites.Homepage(25)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3: the CNN demo, general and sports-only (§5.1) ---

func BenchmarkE3_CNNBuild(b *testing.B) {
	spec := sites.CNN(300)
	spec.Versions = spec.Versions[:1] // general only
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3_SportsOnly(b *testing.B) {
	spec := sites.CNN(300)
	spec.Versions = spec.Versions[1:2] // sports only
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: composed queries (the suciu example, §5.1) ---

func BenchmarkE4_Composition(b *testing.B) {
	data := bibData(b, 200).Freeze()
	q1 := struql.MustParse(`
where Publications(x) create Page(x) link Page(x) -> "self" -> x collect Pages(Page(x))
{ where x -> l -> v link Page(x) -> l -> v }`)
	q2 := struql.MustParse(`
where Pages(p), p -> "year" -> y create Year(y) link Year(y) -> "Pg" -> p collect Years(Year(y))`)
	q3 := struql.MustParse(`
create Nav()
where Pages(p) link Nav() -> "target" -> p, Nav() -> "home" -> Nav()`)
	queries := []*struql.Query{q1, q2, q3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := struql.EvalSeq(queries, data, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: bilingual site from one query (§5.1) ---

func BenchmarkE5_Bilingual(b *testing.B) {
	spec := sites.Bilingual(40)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: full indexing of schema and data (§2.1) ---
//
// Indexed vs naive-scan query evaluation, plus the cost of maintaining
// the indexes, which the paper calls "obviously expensive". The
// scanning side is the reference evaluator, NaiveEval
// (BenchmarkE6_ReferenceScans).

var e6Queries = []string{
	`where Publications(x), x -> "year" -> y, y > 1994 create N(x, y)`,
	`where Publications(x), x -> "category" -> "databases" create C(x)`,
	`where a -> "author" -> w, b -> "author" -> w, a != b create Pair(a, b)`,
	`where Publications(x), not(x -> "month" -> m) create NoMonth(x)`,
}

func BenchmarkE6_IndexedQueries(b *testing.B) {
	// The 25600-item tier (~270k edges) exercises the frozen-snapshot
	// fast path at a scale where per-edge allocation dominates.
	for _, size := range []int{100, 400, 1600, 6400, 25600} {
		data := bibData(b, size).Freeze()
		b.Run(fmt.Sprintf("edges=%d", data.NumEdges()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, qs := range e6Queries {
					mustEval(b, struql.MustParse(qs), data)
				}
			}
		})
	}
}

// BenchmarkE6_NaiveQueries runs the optimized evaluator without its
// planner: conditions in first-ready textual order over a plain map
// graph, which the evaluator freezes into a snapshot on every
// evaluation. It is the no-planner ablation,
// not a scan baseline.
func BenchmarkE6_NaiveQueries(b *testing.B) {
	for _, size := range []int{100, 400, 1600} {
		g := bibData(b, size)
		b.Run(fmt.Sprintf("edges=%d", g.NumEdges()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, qs := range e6Queries {
					r, err := struql.Eval(struql.MustParse(qs), g, &struql.Options{NoReorder: true})
					if err != nil {
						b.Fatal(err)
					}
					_ = r
				}
			}
		})
	}
}

// BenchmarkE6_ReferenceScans runs the suite through NaiveEval, the
// reference evaluator, which answers every access with a scan of a
// plain map graph. Its self-join is quadratic, so it stops at 4,246
// edges.
func BenchmarkE6_ReferenceScans(b *testing.B) {
	for _, size := range []int{100, 400} {
		g := bibData(b, size)
		b.Run(fmt.Sprintf("edges=%d", g.NumEdges()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, qs := range e6Queries {
					if _, err := struql.NaiveEval(struql.MustParse(qs), g); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkE6_IndexMaintenance times building the repository's indexes,
// which are its frozen snapshot: each iteration freezes a fresh copy of
// the graph.
func BenchmarkE6_IndexMaintenance(b *testing.B) {
	for _, size := range []int{100, 400, 1600, 6400, 25600} {
		g := bibData(b, size)
		b.Run(fmt.Sprintf("edges=%d", g.NumEdges()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Copy().Freeze()
			}
		})
	}
}

// --- E7: static materialization vs dynamic click-time evaluation (§2.5) ---

func e7Fixture(b *testing.B) (*struql.Query, *graph.Frozen) {
	b.Helper()
	q := struql.MustParse(sites.CNNQuery)
	spec := sites.CNN(300)
	med, err := mediator.New(spec.Sources...)
	if err != nil {
		b.Fatal(err)
	}
	data, err := med.Warehouse()
	if err != nil {
		b.Fatal(err)
	}
	return q, data
}

func BenchmarkE7_StaticMaterialize(b *testing.B) {
	q, data := e7Fixture(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mustEval(b, q, data)
	}
}

// browse follows a deterministic click session from the front page.
func browse(b *testing.B, ev *dynamic.Evaluator, clicks int) {
	b.Helper()
	root := dynamic.PageRef{Fn: "FrontPage"}
	cur := root
	for c := 0; c < clicks; c++ {
		pd, err := ev.Page(cur)
		if err != nil {
			b.Fatal(err)
		}
		links := ev.Links(pd)
		if len(links) == 0 {
			cur = root
			continue
		}
		cur = links[c%len(links)]
	}
}

func BenchmarkE7_DynamicCold(b *testing.B) {
	q, data := e7Fixture(b)
	s := schema.Build(q)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev := dynamic.NewEvaluator(s, data)
		browse(b, ev, 10)
	}
}

func BenchmarkE7_DynamicCached(b *testing.B) {
	q, data := e7Fixture(b)
	ev := dynamic.NewEvaluator(schema.Build(q), data)
	browse(b, ev, 10) // warm the cache
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		browse(b, ev, 10)
	}
}

func BenchmarkE7_DynamicLookahead(b *testing.B) {
	q, data := e7Fixture(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev := dynamic.NewEvaluator(schema.Build(q), data)
		ev.Lookahead = true
		browse(b, ev, 10)
	}
}

// --- E8: incremental update vs full rebuild (§7) ---

// e8Fixture returns the 200-publication homepage version, its data, and
// a copy with one publication added plus the delta between the two.
func e8Fixture(b *testing.B) (*core.Version, *graph.Graph, *graph.Graph, *mediator.Delta) {
	b.Helper()
	spec := sites.Homepage(200)
	med, err := mediator.New(spec.Sources...)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := med.Warehouse(); err != nil {
		b.Fatal(err)
	}
	data := med.DataGraph()
	updated := data.Copy()
	updated.AddToCollection("Publications", "brandnew")
	updated.AddEdge("brandnew", "title", graph.NewString("A Brand New Result"))
	updated.AddEdge("brandnew", "year", graph.NewInt(1999))
	updated.AddEdge("brandnew", "category", graph.NewString("databases"))
	return &spec.Versions[0], data, updated, mediator.Diff(data, updated)
}

func BenchmarkE8_FullRebuild(b *testing.B) {
	v, _, updated, _ := e8Fixture(b)
	q := struql.MustParse(v.Queries[0])
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mustEval(b, q, updated)
	}
}

// benchEngineApply measures ivm.Engine.Apply of one delta against a
// maintained version. Iterations alternate the delta and its inverse:
// re-applying an identical delta dedupes every row and constructs
// nothing, so it would time a no-op.
func benchEngineApply(b *testing.B, v *core.Version, data, updated *graph.Graph, delta *mediator.Delta) {
	e, err := ivm.NewEngine(v, data, nil)
	if err != nil {
		b.Fatal(err)
	}
	srcs := []struql.Source{updated, data}
	deltas := []*mediator.Delta{delta, mediator.Diff(updated, data)}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Apply(srcs[i%2], deltas[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8_EngineApplyPubDelta(b *testing.B) {
	// Worst case: a publication delta touches the block that dominates
	// evaluation cost.
	v, data, updated, delta := e8Fixture(b)
	benchEngineApply(b, v, data, updated, delta)
}

func BenchmarkE8_EngineApplyPatentDelta(b *testing.B) {
	// Best case: a patent delta affects only the small patents block;
	// the 200-publication block is skipped entirely.
	v, data, _, _ := e8Fixture(b)
	updated := data.Copy()
	updated.AddToCollection("Patents", "newpat")
	updated.AddEdge("newpat", "title", graph.NewString("A new patent"))
	benchEngineApply(b, v, data, updated, mediator.Diff(data, updated))
}

// --- E9: the cost of a second version (§6.1: "building the external
// version was trivial") ---

func BenchmarkE9_FirstVersion(b *testing.B) {
	spec := sites.OrgSite(100, 6, 11, 13)
	med, err := mediator.New(spec.Sources...)
	if err != nil {
		b.Fatal(err)
	}
	data, err := med.Warehouse()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildVersion(&spec.Versions[0], data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE9_SecondVersion(b *testing.B) {
	// The second version shares the evaluated site graph; only the
	// rendering differs.
	spec := sites.OrgSite(100, 6, 11, 13)
	med, err := mediator.New(spec.Sources...)
	if err != nil {
		b.Fatal(err)
	}
	data, err := med.Warehouse()
	if err != nil {
		b.Fatal(err)
	}
	first, err := core.BuildVersion(&spec.Versions[0], data)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.RenderVersion(&spec.Versions[1], first.Queries, first.SiteGraph); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E10: separation of query and construction stages (§6.2) ---

func BenchmarkE10_WhereStage(b *testing.B) {
	data := bibData(b, 1000).Freeze()
	conds := struql.MustParse(`where Publications(x), x -> "year" -> y, x -> l -> v create N(x)`).Blocks[0].Where
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := struql.EvalWhere(conds, data, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10_FullQuery(b *testing.B) {
	data := bibData(b, 1000).Freeze()
	q := struql.MustParse(`where Publications(x), x -> "year" -> y, x -> l -> v create N(x) link N(x) -> l -> v, N(x) -> "year" -> y`)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mustEval(b, q, data)
	}
}

func BenchmarkE10_SkolemMemoHits(b *testing.B) {
	env := struql.NewSkolemEnv()
	args := []graph.Value{graph.NewString("pub123")}
	env.OID("Page", args)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env.OID("Page", args)
	}
}

func BenchmarkE10_SkolemMemoMisses(b *testing.B) {
	env := struql.NewSkolemEnv()
	// Warm the environment so the one-time arena/table initialization is
	// excluded; the loop measures the steady-state per-miss cost.
	env.OID("Warm", []graph.Value{graph.NewInt(-1)})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env.OID("Page", []graph.Value{graph.NewInt(int64(i))})
	}
}

// --- E11: regular path expressions — the TextOnly copy query (§2.2) ---

const textOnlyQuery = `
where Root(p), p -> * -> q, isNode(q)
create New(q)
collect TextOnlyRoot(New(p))
{
  where q -> l -> q2, isNode(q2)
  link New(q) -> l -> New(q2)
}
{
  where q -> l -> q2, isAtom(q2), not(isImageFile(q2))
  link New(q) -> l -> q2
}
`

// chainSite builds a deep site: a chain of sections each holding leaves,
// some of which are images the TextOnly query must strip.
func chainSite(depth, fanout int) *graph.Graph {
	g := graph.New()
	g.AddToCollection("Root", "s0")
	for i := 0; i < depth; i++ {
		cur := graph.OID(fmt.Sprintf("s%d", i))
		if i+1 < depth {
			g.AddEdge(cur, "next", graph.NewNode(graph.OID(fmt.Sprintf("s%d", i+1))))
		}
		for j := 0; j < fanout; j++ {
			if j%3 == 0 {
				g.AddEdge(cur, "pic", graph.NewFile(graph.FileImage, fmt.Sprintf("i%d-%d.gif", i, j)))
			} else {
				g.AddEdge(cur, "txt", graph.NewString(fmt.Sprintf("leaf %d-%d", i, j)))
			}
		}
	}
	return g
}

func BenchmarkE11_TextOnly(b *testing.B) {
	q := struql.MustParse(textOnlyQuery)
	for _, depth := range []int{10, 100, 1000} {
		data := chainSite(depth, 6).Freeze()
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mustEval(b, q, data)
			}
		})
	}
}

func BenchmarkE11_RPEScaling(b *testing.B) {
	for _, pat := range []string{`"next"*`, `("next"|"txt")*`, `~"n.*"+`, `"next"."next"."next"`} {
		pe := struql.MustParsePathExpr(pat)
		data := chainSite(500, 4).Freeze()
		b.Run(pat, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				struql.ReachableVia(data, "s0", pe)
			}
		})
	}
}

// --- E12: integrity-constraint verification (§2.5) ---

func e12Fixture(b *testing.B) (*schema.Schema, *graph.Frozen, *graph.Graph, constraints.Constraint) {
	b.Helper()
	q := struql.MustParse(sites.HomepageQuery)
	data, err := sites.HomepageData(200)
	if err != nil {
		b.Fatal(err)
	}
	ix := data.Freeze()
	site := mustEval(b, q, ix)
	c, err := constraints.Parse(`every PaperPresentation reachable from CategoryPage via "Paper"`)
	if err != nil {
		b.Fatal(err)
	}
	return schema.Build(q), ix, site, c
}

func BenchmarkE12_StaticVerification(b *testing.B) {
	s, _, _, c := e12Fixture(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.CheckStatic(s)
	}
}

func BenchmarkE12_DataVerification(b *testing.B) {
	s, data, _, c := e12Fixture(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.CheckData(s, data)
	}
}

func BenchmarkE12_SiteVerification(b *testing.B) {
	_, _, site, c := e12Fixture(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.CheckSite(site)
	}
}

// --- E13: parallel build scaling (this reproduction's worker-pool
// pipeline; not in the paper) ---
//
// One version of the CNN site, warehoused once, built end to end —
// StruQL evaluation plus HTML generation — at increasing worker counts.
// The j=1 sub-benchmark is the sequential baseline; each wider run
// reports its speedup over it. Output is byte-identical at every
// setting (TestParallelDeterminism pins that), so this measures pure
// scheduling win. Speedup beyond j=GOMAXPROCS cannot appear: on a
// single-CPU host every setting times roughly the same.

func BenchmarkE13_ParallelScaling(b *testing.B) {
	spec := sites.CNN(300)
	spec.Versions = spec.Versions[:1] // general only
	med, err := mediator.New(spec.Sources...)
	if err != nil {
		b.Fatal(err)
	}
	data, err := med.Warehouse()
	if err != nil {
		b.Fatal(err)
	}
	workers := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		workers = append(workers, n)
	}
	var baseline time.Duration
	for _, j := range workers {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			opts := &core.Options{Parallelism: j}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildVersionWith(&spec.Versions[0], data, opts); err != nil {
					b.Fatal(err)
				}
			}
			perOp := b.Elapsed() / time.Duration(b.N)
			if j == 1 {
				baseline = perOp
			} else if baseline > 0 && perOp > 0 {
				b.ReportMetric(float64(baseline)/float64(perOp), "speedup")
			}
		})
	}
}

// --- E14: cost-based planning vs fixed heuristics (this reproduction's addition) ---

// e14Data builds a graph with deliberately skewed selectivity: every
// item carries one unique "id" edge (fan-out 1) and forty "tag" edges
// (fan-out 40), plus a sparse "rare" chain. Uniform-degree heuristics
// cannot tell the two labels apart; collected statistics can.
func e14Data(n int) *graph.Frozen {
	g := graph.New()
	oid := func(i int) graph.OID { return graph.OID(fmt.Sprintf("p%05d", i)) }
	for i := 0; i < n; i++ {
		g.AddToCollection("Items", oid(i))
		g.AddEdge(oid(i), "id", graph.NewString(fmt.Sprintf("x%05d", i)))
		for t := 0; t < 40; t++ {
			g.AddEdge(oid(i), "tag", graph.NewString(fmt.Sprintf("t%02d", (i+t)%64)))
		}
		if i%50 == 0 && i > 0 {
			g.AddEdge(oid(i-50), "rare", graph.NewNode(oid(i)))
		}
	}
	return g.Freeze()
}

// e14SelectiveQuery touches the dense label first textually: the
// heuristic planner keeps that order (equal estimated fan-out) and
// expands every row 40-fold before the unique "id" seek prunes; the
// cost-based planner routes the id seek and its filter first.
const e14SelectiveQuery = `where Items(x), x -> "tag" -> t, x -> "id" -> i, i = "x00001"
create Out(x) link Out(x) -> "tag" -> t`

func BenchmarkE14_SelectiveQuery(b *testing.B) {
	data := e14Data(2000)
	q := struql.MustParse(e14SelectiveQuery)
	heur, err := struql.Eval(q, data, &struql.Options{NoStats: true})
	if err != nil {
		b.Fatal(err)
	}
	cost, err := struql.Eval(q, data, nil)
	if err != nil {
		b.Fatal(err)
	}
	if heur.Graph.Dump() != cost.Graph.Dump() {
		b.Fatal("heuristic and cost-based plans produced different graphs")
	}
	for _, cfg := range []struct {
		name string
		opts *struql.Options
	}{
		{"planner=heuristic", &struql.Options{NoStats: true}},
		{"planner=cost", nil},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := struql.Eval(q, data, cfg.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE14_Stats isolates the price of the statistics themselves:
// cold collects per evaluation, warm reuses a pre-collected Stats.
func BenchmarkE14_Stats(b *testing.B) {
	data := e14Data(2000)
	q := struql.MustParse(e14SelectiveQuery)
	warm := struql.CollectStats(data)
	b.Run("stats=cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := struql.Eval(q, data, &struql.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stats=warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := struql.Eval(q, data, &struql.Options{Stats: warm}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE14_RPEDispatch measures index-seeded regular-path
// evaluation: the start variable is unbound, but every accepted path
// begins with the sparse "rare" label, so the planner seeds the start
// set from that label's extent instead of scanning every node (NoStats
// disables seeding — the scan baseline).
func BenchmarkE14_RPEDispatch(b *testing.B) {
	data := e14Data(2000)
	q := struql.MustParse(`where Items(x), y -> "rare"+ -> x create Out(y) link Out(y) -> "to" -> x`)
	seeded, err := struql.Eval(q, data, nil)
	if err != nil {
		b.Fatal(err)
	}
	scanned, err := struql.Eval(q, data, &struql.Options{NoStats: true})
	if err != nil {
		b.Fatal(err)
	}
	if seeded.Graph.Dump() != scanned.Graph.Dump() {
		b.Fatal("seeded and scanning RPE dispatch produced different graphs")
	}
	for _, cfg := range []struct {
		name string
		opts *struql.Options
	}{
		{"rpe=seeded", nil},
		{"rpe=scan", &struql.Options{NoStats: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := struql.Eval(q, data, cfg.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E15: fail-soft incremental rebuilds — delta propagation vs full
// rebuild for a localized edit (the edit-storm steady state) ---

func e15Site(b *testing.B) (*ivm.Site, *core.Version, *graph.Graph, *graph.Graph, *mediator.Delta) {
	b.Helper()
	spec := sites.Homepage(200)
	med, err := mediator.New(spec.Sources...)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := med.Warehouse(); err != nil {
		b.Fatal(err)
	}
	data := med.DataGraph()
	site, err := ivm.NewSite(&spec.Versions[0], data, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	if site.Engine() == nil {
		b.Fatal("homepage version should maintain incrementally")
	}
	updated := data.Copy()
	updated.AddToCollection("Patents", "benchpat")
	updated.AddEdge("benchpat", "title", graph.NewString("Bench patent"))
	updated.AddEdge("benchpat", "number", graph.NewString("US7777777"))
	return site, &spec.Versions[0], data, updated, mediator.Diff(data, updated)
}

func BenchmarkE15_DeltaApplyLocalized(b *testing.B) {
	// One patent added to a 200-publication site: the delta path
	// re-derives only the patent rows and re-renders only the pages they
	// touch. Iterations alternate the addition and its removal, so every
	// one constructs rows (an identical delta would dedupe to a no-op).
	site, _, data, updated, delta := e15Site(b)
	srcs := []struql.Source{updated, data}
	deltas := []*mediator.Delta{delta, mediator.Diff(updated, data)}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := site.Apply(srcs[i%2], deltas[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE15_FullRebuildLocalized(b *testing.B) {
	// The degraded path for the same edit: evaluate the whole query and
	// re-render every page from scratch.
	_, version, _, updated, _ := e15Site(b)
	src := updated
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildVersionWith(version, src, nil); err != nil {
			b.Fatal(err)
		}
	}
}
