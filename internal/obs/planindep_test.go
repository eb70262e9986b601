// Plan-independence property tests: the cost-based planner may pick any
// condition order and access path, so every planner configuration —
// statistics on or off, reordering on or off, any parallelism — and
// every textual permutation of the where clauses must produce
// byte-identical site graphs and rendered HTML for every bundled
// example site. This pins the contract experiment E14 relies on: the
// planner changes evaluation time, never output.
package obs_test

import (
	"fmt"
	"runtime"
	"testing"

	"strudel/internal/core"
	"strudel/internal/mediator"
	"strudel/internal/struql"
)

// buildSite builds a spec through the whole pipeline and returns
// rendered pages plus each version's site-graph dump: the reference
// every planner configuration is compared against.
func buildSite(t *testing.T, spec *core.Spec, opts *core.Options) (map[string]map[string]string, map[string]string) {
	t.Helper()
	res, err := core.BuildWith(spec, opts)
	if err != nil {
		t.Fatalf("build %s: %v", spec.Name, err)
	}
	pages := map[string]map[string]string{}
	dumps := map[string]string{}
	for name, vr := range res.Versions {
		pages[name] = vr.Output.Pages
		dumps[name] = vr.SiteGraph.Dump()
	}
	return pages, dumps
}

// genericOnly hides the warehoused repository's Frozen() and LabelStats
// (embedding the interface promotes only struql.Source's own methods),
// so every query of a build — not just the composed ones, which read a
// UnionSource anyway — takes the evaluator's generic access paths.
type genericOnly struct{ struql.Source }

// buildSiteWith is buildSite under one planner configuration. The
// planner toggles are evaluator options (struql.Options), so it
// warehouses the sources itself, evaluates each version's queries with
// struql.EvalSeq under opts, and renders the site graph with
// core.RenderVersionWith at the same parallelism. With generic set the
// data graph is wrapped in genericOnly.
func buildSiteWith(t *testing.T, spec *core.Spec, opts *struql.Options, generic bool) (map[string]map[string]string, map[string]string) {
	t.Helper()
	med, err := mediator.New(spec.Sources...)
	if err != nil {
		t.Fatalf("build %s: %v", spec.Name, err)
	}
	ix, err := med.Warehouse()
	if err != nil {
		t.Fatalf("build %s: %v", spec.Name, err)
	}
	var data struql.Source = ix
	if generic {
		data = genericOnly{ix}
	}
	pages := map[string]map[string]string{}
	dumps := map[string]string{}
	for i := range spec.Versions {
		v := &spec.Versions[i]
		queries := make([]*struql.Query, len(v.Queries))
		for j, src := range v.Queries {
			if queries[j], err = struql.Parse(src); err != nil {
				t.Fatalf("build %s: version %s: %v", spec.Name, v.Name, err)
			}
		}
		site, err := struql.EvalSeq(queries, data, opts)
		if err != nil {
			t.Fatalf("build %s: version %s: %v", spec.Name, v.Name, err)
		}
		vr, err := core.RenderVersionWith(v, queries, site, &core.Options{Parallelism: opts.Parallelism})
		if err != nil {
			t.Fatalf("build %s: version %s: %v", spec.Name, v.Name, err)
		}
		pages[vr.Name] = vr.Output.Pages
		dumps[vr.Name] = vr.SiteGraph.Dump()
	}
	return pages, dumps
}

func diffDumps(t *testing.T, label string, want, got map[string]string) {
	t.Helper()
	for vname, w := range want {
		if g := got[vname]; g != w {
			t.Errorf("%s: version %s: site graph bytes differ", label, vname)
		}
	}
}

// TestPlannerConfigIndependence builds every example site under the
// planner-toggle matrix and compares against the sequential default.
func TestPlannerConfigIndependence(t *testing.T) {
	variants := []*struql.Options{
		{NoStats: true},
		{NoReorder: true},
		{NoStats: true, NoReorder: true, Parallelism: 2},
		{Parallelism: runtime.NumCPU()},
		{NoStats: true, Parallelism: runtime.NumCPU()},
	}
	genericVariants := []*struql.Options{
		{},
		{NoStats: true, Parallelism: 2},
	}
	for name, spec := range exampleSpecs() {
		t.Run(name, func(t *testing.T) {
			basePages, baseDumps := buildSite(t, spec, &core.Options{Parallelism: 1})
			for _, opts := range variants {
				label := fmt.Sprintf("noStats=%v/noReorder=%v/par=%d", opts.NoStats, opts.NoReorder, opts.Parallelism)
				pages, dumps := buildSiteWith(t, spec, opts, false)
				diffPages(t, label, basePages, pages)
				diffDumps(t, label, baseDumps, dumps)
			}
			for _, opts := range genericVariants {
				label := fmt.Sprintf("generic/noStats=%v/par=%d", opts.NoStats, opts.Parallelism)
				pages, dumps := buildSiteWith(t, spec, opts, true)
				diffPages(t, label, basePages, pages)
				diffDumps(t, label, baseDumps, dumps)
			}
		})
	}
}

// shuffleQuery parses a StruQL source, shuffles every block's where
// conditions (nested blocks included) with a seeded generator, and
// prints the query back. The shuffled text must reparse — the printer
// and parser are a round-trip — and must evaluate identically.
func shuffleQuery(t *testing.T, src string, seed uint64) string {
	t.Helper()
	q, err := struql.Parse(src)
	if err != nil {
		t.Fatalf("parse site query: %v", err)
	}
	n := func(k int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int((seed >> 33) % uint64(k))
	}
	var shuffleBlock func(b *struql.Block)
	shuffleBlock = func(b *struql.Block) {
		for i := len(b.Where) - 1; i > 0; i-- {
			j := n(i + 1)
			b.Where[i], b.Where[j] = b.Where[j], b.Where[i]
		}
		for _, nb := range b.Nested {
			shuffleBlock(nb)
		}
	}
	for _, b := range q.Blocks {
		shuffleBlock(b)
	}
	out := q.String()
	if _, err := struql.Parse(out); err != nil {
		t.Fatalf("shuffled query does not reparse: %v\n%s", err, out)
	}
	return out
}

// shuffledSpec returns a copy of the spec with every version's query
// composition condition-shuffled under the seed.
func shuffledSpec(t *testing.T, spec *core.Spec, seed uint64) *core.Spec {
	t.Helper()
	out := *spec
	out.Versions = append([]core.Version(nil), spec.Versions...)
	for i := range out.Versions {
		qs := make([]string, len(out.Versions[i].Queries))
		for j, src := range out.Versions[i].Queries {
			qs[j] = shuffleQuery(t, src, seed+uint64(j)*1299709)
		}
		out.Versions[i].Queries = qs
	}
	return &out
}

// TestShuffledConditionsIndependence is the declarative-semantics
// property at site scale: permuting where conditions in every site
// query changes neither the site graph nor a byte of rendered HTML,
// with the cost-based planner and with the first-ready textual
// fallback alike.
func TestShuffledConditionsIndependence(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for name, spec := range exampleSpecs() {
		t.Run(name, func(t *testing.T) {
			basePages, baseDumps := buildSite(t, spec, &core.Options{Parallelism: 1})
			for _, seed := range seeds {
				shuffled := shuffledSpec(t, spec, seed)
				for _, opts := range []*struql.Options{{}, {NoReorder: true}} {
					label := fmt.Sprintf("seed=%d/noReorder=%v", seed, opts.NoReorder)
					pages, dumps := buildSiteWith(t, shuffled, opts, false)
					diffPages(t, label, basePages, pages)
					diffDumps(t, label, baseDumps, dumps)
				}
				pages, dumps := buildSiteWith(t, shuffled, &struql.Options{}, true)
				label := fmt.Sprintf("seed=%d/generic", seed)
				diffPages(t, label, basePages, pages)
				diffDumps(t, label, baseDumps, dumps)
			}
		})
	}
}
