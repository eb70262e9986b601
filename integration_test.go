// Cross-module integration tests exercising the whole system through its
// public seams: wrappers → mediator → repository persistence → query →
// schema → constraints → templates → generated HTML.
package strudel_test

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"strudel/internal/constraints"
	"strudel/internal/core"
	"strudel/internal/dynamic"
	"strudel/internal/ivm"
	"strudel/internal/mediator"
	"strudel/internal/obs"
	"strudel/internal/repo"
	"strudel/internal/schema"
	"strudel/internal/sites"
	"strudel/internal/struql"
)

// TestPipelineArchitecture walks Fig. 1 end to end with persistence in
// the middle: warehouse the CNN sources, save the data graph to disk in
// both formats, reload it, evaluate the site query, verify constraints,
// and render — the reloaded repository must produce the same site as the
// in-memory one.
func TestPipelineArchitecture(t *testing.T) {
	spec := sites.CNN(40)
	med, err := mediator.New(spec.Sources...)
	if err != nil {
		t.Fatal(err)
	}
	warehouse, err := med.Warehouse()
	if err != nil {
		t.Fatal(err)
	}
	// Persist and reload through both formats.
	r := repo.NewRepository()
	r.PutIndexed("data", warehouse)
	textDir := filepath.Join(t.TempDir(), "text")
	binDir := filepath.Join(t.TempDir(), "bin")
	if err := r.Save(textDir); err != nil {
		t.Fatal(err)
	}
	if err := r.SaveBinary(binDir); err != nil {
		t.Fatal(err)
	}
	fromText := repo.NewRepository()
	if err := fromText.Load(textDir); err != nil {
		t.Fatal(err)
	}
	fromBin := repo.NewRepository()
	if err := fromBin.LoadBinary(binDir); err != nil {
		t.Fatal(err)
	}
	q := struql.MustParse(sites.CNNQuery)
	build := func(src struql.Source) string {
		res, err := struql.Eval(q, src, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Graph.Dump()
	}
	direct := build(warehouse)
	if got := build(fromText.Get("data")); got != direct {
		t.Error("text-persisted data graph produced a different site")
	}
	if got := build(fromBin.Get("data")); got != direct {
		t.Error("binary-persisted data graph produced a different site")
	}
	// Constraints on the rebuilt site.
	c, err := constraints.Parse(`every ArticlePage reachable from FrontPage via _*`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := struql.Eval(q, fromBin.Get("data"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := c.CheckSite(res.Graph); v.Verdict != constraints.Verified {
		t.Errorf("constraint on reloaded site: %s (%s)", v.Verdict, v.Reason)
	}
}

// TestStaticDynamicAndMaintainedAgree builds the same version three ways
// — one-shot static build, dynamic materialization, and the incremental
// maintainer after a change — and checks they tell one story.
func TestStaticDynamicAndMaintainedAgree(t *testing.T) {
	spec := sites.CNN(30)
	med, err := mediator.New(spec.Sources...)
	if err != nil {
		t.Fatal(err)
	}
	data, err := med.Warehouse()
	if err != nil {
		t.Fatal(err)
	}
	q := struql.MustParse(sites.CNNQuery)
	static, err := struql.Eval(q, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev := dynamic.NewEvaluator(schema.Build(q), data)
	dyn, err := ev.MaterializeAll()
	if err != nil {
		t.Fatal(err)
	}
	// Every dynamically discovered page exists statically with the same
	// out-edges.
	for _, oid := range dyn.Nodes() {
		if _, isPage := ev.RefFor(oid); !isPage {
			continue
		}
		so, do := static.Graph.Out(oid), dyn.Out(oid)
		if len(so) != len(do) {
			t.Errorf("%s: static %d edges, dynamic %d", oid, len(so), len(do))
		}
	}
	// The incrementally maintained site reproduces a from-scratch
	// rebuild page for page.
	m, err := ivm.NewSite(&spec.Versions[0], data, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Engine() == nil {
		t.Fatal("the CNN version should maintain incrementally")
	}
	fresh, err := core.BuildVersion(&spec.Versions[0], data)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range fresh.Output.Pages {
		if m.Output().Pages[name] != want {
			t.Errorf("maintained page %s differs from fresh build", name)
		}
	}
}

// TestSchemaDrivenToolingConsistency: the site schema derived from each
// bundled site's query names every Skolem function the evaluated site
// actually uses, and the schema-recovered query reproduces the site for
// aggregate-free queries.
func TestSchemaDrivenToolingConsistency(t *testing.T) {
	cases := map[string]string{
		"homepage":  sites.HomepageQuery,
		"cnn":       sites.CNNQuery,
		"bilingual": sites.BilingualQuery,
	}
	for name, qs := range cases {
		q := struql.MustParse(qs)
		s := schema.Build(q)
		for _, fn := range q.SkolemFunctions() {
			if !s.HasNode(fn) {
				t.Errorf("%s: schema missing %s", name, fn)
			}
		}
	}
	// Recovery check on the bilingual query (no arc-copy idiosyncrasies).
	spec := sites.Bilingual(5)
	med, _ := mediator.New(spec.Sources...)
	data, err := med.Warehouse()
	if err != nil {
		t.Fatal(err)
	}
	q := struql.MustParse(sites.BilingualQuery)
	orig, err := struql.Eval(q, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := struql.Eval(schema.Build(q).RecoverQuery(), data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if orig.Graph.Dump() != rec.Graph.Dump() {
		t.Error("schema-recovered bilingual query diverged")
	}
}

// TestInstrumentedPipelineEndToEnd drives the full pipeline — wrappers,
// mediator, query, generation — with every instrumentation sink and the
// tracer attached, and checks two things: the observed build is
// byte-identical to the unobserved one, and the cross-layer metric
// totals are mutually consistent (what one layer hands off is what the
// next layer reports receiving).
func TestInstrumentedPipelineEndToEnd(t *testing.T) {
	spec := sites.CNN(40)
	plain, err := core.BuildWith(spec, &core.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	opts := &core.Options{
		Parallelism: 2,
		Eval:        &obs.EvalMetrics{},
		Source:      &obs.SourceMetrics{},
		Gen:         &obs.GenMetrics{},
		Trace:       obs.NewTracer(),
	}
	observed, err := core.BuildWith(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	for vname, pv := range plain.Versions {
		ov := observed.Versions[vname]
		if ov == nil {
			t.Fatalf("version %s missing from observed build", vname)
		}
		for file, want := range pv.Output.Pages {
			if ov.Output.Pages[file] != want {
				t.Errorf("version %s: page %s differs under instrumentation", vname, file)
			}
		}
	}
	// Cross-layer consistency.
	if got, want := opts.Source.Loads.Load(), int64(len(spec.Sources)); got != want {
		t.Errorf("source loads = %d, want %d", got, want)
	}
	totalPages := int64(0)
	for _, vr := range observed.Versions {
		totalPages += int64(len(vr.Output.Pages))
	}
	if got := opts.Gen.Pages.Load(); got != totalPages {
		t.Errorf("generator counted %d pages, output has %d", got, totalPages)
	}
	// The bundled queries use no regex paths; exercise the NFA-cache
	// metrics with an explicit path query over the warehoused data. The
	// same path expression in two blocks compiles once and hits once.
	pathMetrics := &obs.EvalMetrics{}
	pq := struql.MustParse(`
		where Articles(a), a -> "headline"."text"? -> h create H(a)
		where Articles(a), a -> "headline"."text"? -> h create H2(a)`)
	if _, err := struql.Eval(pq, observed.Data, &struql.Options{Metrics: pathMetrics}); err != nil {
		t.Fatal(err)
	}
	if got := pathMetrics.NFAMisses.Load(); got != 1 {
		t.Errorf("NFA compilations = %d, want 1 (shared path compiles once)", got)
	}
	if got := pathMetrics.NFAHits.Load(); got != 1 {
		t.Errorf("NFA cache hits = %d, want 1 (second block reuses the matcher)", got)
	}
	// The trace must contain the whole pipeline, with the registry's JSON
	// view parseable (the /debug/vars contract).
	seen := map[string]bool{}
	for _, s := range opts.Trace.Spans() {
		seen[s.Name] = true
	}
	for _, stage := range []string{"build", "wrap", "version", "query", "generate"} {
		if !seen[stage] {
			t.Errorf("trace missing %q stage", stage)
		}
	}
	reg := obs.NewRegistry()
	reg.Register("eval", opts.Eval)
	reg.Register("sources", opts.Source)
	reg.Register("htmlgen", opts.Gen)
	var parsed map[string]map[string]any
	if err := json.Unmarshal([]byte(reg.String()), &parsed); err != nil {
		t.Fatalf("registry JSON does not parse: %v", err)
	}
	if _, ok := parsed["eval"]["where_evals"]; !ok {
		t.Error("registry JSON missing eval.where_evals")
	}
}

// TestProprietaryNeverLeaksExternally sweeps every page of the external
// org site for the synthetic proprietary markers.
func TestProprietaryNeverLeaksExternally(t *testing.T) {
	res, err := core.Build(sites.OrgSite(60, 4, 12, 16))
	if err != nil {
		t.Fatal(err)
	}
	ex := res.Versions["external"]
	for name, page := range ex.Output.Pages {
		if strings.Contains(page, "comp-band") {
			t.Errorf("external page %s leaks internal compensation data", name)
		}
		if strings.Contains(page, "Phone:") {
			t.Errorf("external page %s leaks phone numbers", name)
		}
	}
	in := res.Versions["internal"]
	var leaksExist bool
	for _, page := range in.Output.Pages {
		if strings.Contains(page, "comp-band") {
			leaksExist = true
		}
	}
	if !leaksExist {
		t.Error("internal site should show internal data (fixture broken)")
	}
}
