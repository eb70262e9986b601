// Package core assembles the Strudel system of Fig. 1: wrappers feed the
// mediator, the mediator warehouses an integrated data graph in the
// repository, a site-definition query (or a composition of queries)
// produces the site graph, integrity constraints are checked, and the
// HTML generator emits the browsable web site.
//
// A Spec describes a whole site project; its Versions share the data
// graph and — when their queries are identical — the site graph, which is
// how the paper builds an external view of the AT&T site from the
// internal one with "no new queries" (§5.1), and how one site graph can
// carry multiple visual presentations.
package core

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"strudel/internal/constraints"
	"strudel/internal/diag"
	"strudel/internal/graph"
	"strudel/internal/htmlgen"
	"strudel/internal/mediator"
	"strudel/internal/obs"
	"strudel/internal/repo"
	"strudel/internal/schema"
	"strudel/internal/struql"
	"strudel/internal/template"
)

// Options tunes a build. The zero value (and a nil *Options) is the
// parallel default: one worker per available CPU in the query evaluator
// and the HTML generator, and independent versions built concurrently.
// Output is byte-identical at every setting; Parallelism: 1 forces the
// fully sequential pipeline.
type Options struct {
	// Parallelism is the per-stage worker count: 0 = GOMAXPROCS,
	// 1 = sequential, n>1 = exactly n workers.
	Parallelism int
	// Eval, Source, and Gen are optional instrumentation sinks threaded
	// to the query evaluator, the mediator, and the HTML generator. Nil
	// sinks (the default) disable instrumentation; output is identical
	// either way.
	Eval   *obs.EvalMetrics
	Source *obs.SourceMetrics
	Gen    *obs.GenMetrics
	// Trace, when non-nil, records per-stage spans of every build:
	// build ▸ wrap, build ▸ version ▸ query, build ▸ version ▸
	// generate. cmd/strudel's -trace flag emits them as JSON Lines.
	Trace *obs.Tracer
	// Lenient switches source loading to fail-soft: sources with a
	// lenient loader skip malformed records (collecting position-tagged
	// diagnostics in BuildResult.SourceReports) and the build fails only
	// when a source's skips exceed Budget.
	Lenient bool
	// Budget bounds skipped records per source in lenient mode. The
	// zero value allows no skips; diag.Unlimited never fails.
	Budget diag.Budget
	// MaxRows and MaxNFAStates bound query evaluation (0 = unlimited);
	// see struql.Options.
	MaxRows      int
	MaxNFAStates int
	// EvalTimeout is the wall-clock budget for each version's query
	// evaluation (0 = none). Exceeding any of the three guards fails
	// the build with a struql.ResourceExhausted error.
	EvalTimeout time.Duration
	// parent is the enclosing span for this build's stage spans,
	// threaded internally so concurrent version builds nest correctly.
	parent *obs.Span
}

func (o *Options) parallelism() int {
	if o == nil {
		return 0
	}
	return o.Parallelism
}

// EvalOptions derives the struql evaluation options this build would
// run with: parallelism, metrics, limits, and — when EvalTimeout is set —
// a deadline anchored at the call. The incremental maintainer uses it to
// evaluate deltas under the same guards as the full build. Nil-safe.
func (o *Options) EvalOptions() *struql.Options { return o.evalOptions() }

func (o *Options) evalOptions() *struql.Options {
	so := &struql.Options{Parallelism: o.parallelism()}
	if o != nil {
		so.Metrics = o.Eval
		so.MaxRows = o.MaxRows
		so.MaxNFAStates = o.MaxNFAStates
		if o.EvalTimeout > 0 {
			so.Deadline = time.Now().Add(o.EvalTimeout)
		}
	}
	return so
}

// span opens a stage span: a child of the build's enclosing span when
// one is set, else a top-level span of the tracer. Nil-safe throughout —
// with no tracer it returns a nil span and every operation on it is a
// no-op.
func (o *Options) span(name string, attrs ...string) *obs.Span {
	if o == nil {
		return nil
	}
	if o.parent != nil {
		return o.parent.Child(name, attrs...)
	}
	return o.Trace.Start(name, attrs...)
}

// withParent returns a copy of o whose stage spans nest under s.
func (o *Options) withParent(s *obs.Span) *Options {
	if o == nil {
		return nil
	}
	c := *o
	c.parent = s
	return &c
}

// Version is one buildable rendition of the site: a query composition, a
// template set, and the realization roots.
type Version struct {
	// Name identifies the version (e.g. "internal", "external").
	Name string
	// Queries are StruQL sources composed in order (§5.1 suciu example);
	// each sees the data graph plus everything built so far.
	Queries []string
	// Templates maps template name → template source.
	Templates map[string]string
	// PerCollection and PerObject configure template selection.
	PerCollection map[string]string
	PerObject     map[string]string
	// ObjectTemplatePrefixes assigns templates by Skolem-oid prefix:
	// "YearPage(" → "YearPage". Applied after PerObject.
	ObjectTemplatePrefixes map[string]string
	// Roots are the realization roots (Skolem display oids, e.g.
	// "RootPage()").
	Roots []string
	// Constraints are textual integrity constraints checked on the
	// materialized site graph.
	Constraints []string
}

// Spec is a whole site project.
type Spec struct {
	Name     string
	Sources  []mediator.Source
	Versions []Version
}

// SiteStats are the per-site metrics the paper reports in §5.1: query and
// template sizes, and the generated site's size.
type SiteStats struct {
	QueryLines    int
	LinkClauses   int
	Templates     int
	TemplateLines int
	SiteNodes     int
	SiteEdges     int
	Pages         int
}

func (s SiteStats) String() string {
	return fmt.Sprintf("query: %d lines, %d link clauses; templates: %d (%d lines); site graph: %d nodes, %d edges; %d pages",
		s.QueryLines, s.LinkClauses, s.Templates, s.TemplateLines, s.SiteNodes, s.SiteEdges, s.Pages)
}

// VersionResult is one built version.
type VersionResult struct {
	Name       string
	Queries    []*struql.Query
	SiteGraph  *graph.Graph
	Schema     *schema.Schema
	Output     *htmlgen.Output
	Checks     []constraints.Result
	ChecksPass bool
	Stats      SiteStats
}

// BuildResult is a fully built spec.
type BuildResult struct {
	Data     *repo.Indexed
	Versions map[string]*VersionResult
	// SourceReports are the per-source skip reports of a lenient build,
	// in source order; nil in strict mode.
	SourceReports []mediator.SourceReport
}

// Build runs the whole pipeline with default (parallel) options.
func Build(spec *Spec) (*BuildResult, error) { return BuildWith(spec, nil) }

// BuildWith runs the whole pipeline: warehouse the sources once, then
// build every version against the shared data graph. Versions whose query
// compositions are textually identical share one evaluated site graph
// (the paper's "no new queries" external view, §5.1); versions with
// different queries evaluate concurrently — the data graph is read-only
// once warehoused. Results and errors are deterministic: the reported
// error is always the one of the earliest failing version in spec order.
func BuildWith(spec *Spec, opts *Options) (*BuildResult, error) {
	build := opts.span("build", "site", spec.Name)
	defer build.End()
	opts = opts.withParent(build)
	med, err := mediator.New(spec.Sources...)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", spec.Name, err)
	}
	if opts != nil {
		med.Obs = opts.Source
	}
	ws := opts.span("wrap")
	var data *repo.Indexed
	var reports []mediator.SourceReport
	if opts != nil && opts.Lenient {
		data, reports, err = med.WarehouseLenient(opts.Budget)
	} else {
		data, err = med.Warehouse()
	}
	ws.End()
	if err != nil {
		// In lenient mode the reports survive the failure, so callers can
		// still print every diagnostic the run collected.
		if reports != nil {
			return &BuildResult{SourceReports: reports},
				fmt.Errorf("core: %s: %w", spec.Name, err)
		}
		return nil, fmt.Errorf("core: %s: %w", spec.Name, err)
	}
	res := &BuildResult{Data: data, Versions: map[string]*VersionResult{}, SourceReports: reports}

	// Group versions by query composition; group members are version
	// indexes in spec order.
	groups := map[string][]int{}
	var groupOrder []string
	for i := range spec.Versions {
		key := strings.Join(spec.Versions[i].Queries, "\x00")
		if _, ok := groups[key]; !ok {
			groupOrder = append(groupOrder, key)
		}
		groups[key] = append(groups[key], i)
	}

	results := make([]*VersionResult, len(spec.Versions))
	errs := make([]error, len(spec.Versions))
	runGroup := func(idxs []int) {
		first := idxs[0]
		vspan := opts.span("version", "name", spec.Versions[first].Name)
		vr, err := BuildVersionWith(&spec.Versions[first], data, opts.withParent(vspan))
		vspan.End()
		if err != nil {
			errs[first] = err
			return
		}
		results[first] = vr
		for _, i := range idxs[1:] {
			vspan := opts.span("version", "name", spec.Versions[i].Name)
			r, err := RenderVersionWith(&spec.Versions[i], vr.Queries, vr.SiteGraph, opts.withParent(vspan))
			vspan.End()
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = r
		}
	}
	if opts.parallelism() == 1 || len(groupOrder) == 1 {
		for _, key := range groupOrder {
			runGroup(groups[key])
		}
	} else {
		var wg sync.WaitGroup
		for _, key := range groupOrder {
			wg.Add(1)
			go func(idxs []int) {
				defer wg.Done()
				runGroup(idxs)
			}(groups[key])
		}
		wg.Wait()
	}
	for i := range spec.Versions {
		if errs[i] != nil {
			return nil, fmt.Errorf("core: %s: version %s: %w", spec.Name, spec.Versions[i].Name, errs[i])
		}
		res.Versions[results[i].Name] = results[i]
	}
	return res, nil
}

// BuildVersion builds one version with default options. It is also the
// entry point for experiment E9 (the cost of a second version).
func BuildVersion(v *Version, data struql.Source) (*VersionResult, error) {
	return BuildVersionWith(v, data, nil)
}

// BuildVersionWith builds one version against an existing data graph.
func BuildVersionWith(v *Version, data struql.Source, opts *Options) (*VersionResult, error) {
	queries, err := parseQueries(v.Queries)
	if err != nil {
		return nil, err
	}
	qs := opts.span("query", "version", v.Name)
	site, err := struql.EvalSeq(queries, data, opts.evalOptions())
	qs.End()
	if err != nil {
		return nil, err
	}
	return RenderVersionWith(v, queries, site, opts)
}

// RenderVersion finishes a build with default options.
func RenderVersion(v *Version, queries []*struql.Query, site *graph.Graph) (*VersionResult, error) {
	return RenderVersionWith(v, queries, site, nil)
}

// RenderVersionWith finishes a build from an already evaluated site graph —
// the path that shares one site graph between versions whose queries are
// identical (only the presentation differs).
func RenderVersionWith(v *Version, queries []*struql.Query, site *graph.Graph, opts *Options) (*VersionResult, error) {
	vr := &VersionResult{Name: v.Name, Queries: queries, SiteGraph: site}
	vr.Schema = schema.Build(combined(queries))

	// Integrity constraints on the materialized site.
	vr.ChecksPass = true
	for _, cs := range v.Constraints {
		c, err := constraints.Parse(cs)
		if err != nil {
			return nil, err
		}
		r := c.CheckSite(site)
		vr.Checks = append(vr.Checks, r)
		if r.Verdict == constraints.Violated {
			vr.ChecksPass = false
		}
	}

	gspan := opts.span("generate", "version", v.Name)
	defer gspan.End()
	gen, roots, err := NewGenerator(v, site, opts)
	if err != nil {
		return nil, err
	}
	out, err := gen.Generate(roots)
	if err != nil {
		return nil, err
	}
	vr.Output = out

	vr.Stats = SiteStats{
		QueryLines:    countQueryLines(v.Queries),
		LinkClauses:   linkClauses(queries),
		Templates:     len(v.Templates),
		TemplateLines: countTemplateLines(v.Templates),
		SiteNodes:     site.NumNodes(),
		SiteEdges:     site.NumEdges(),
		Pages:         out.PageCount(),
	}
	return vr, nil
}

// NewGenerator sets up the HTML generator that renders one version of
// site under the build's options — its templates, template-selection
// rules, parallelism and metrics sink — and returns it with the
// version's realization roots. A full build and incremental maintenance
// both render through it.
func NewGenerator(v *Version, site *graph.Graph, opts *Options) (*htmlgen.Generator, []graph.OID, error) {
	ts := template.NewSet()
	for name, src := range v.Templates {
		if err := ts.Add(name, src); err != nil {
			return nil, nil, err
		}
	}
	gen := htmlgen.New(site, ts)
	gen.Parallelism = opts.parallelism()
	if opts != nil {
		gen.Obs = opts.Gen
	}
	for coll, name := range v.PerCollection {
		gen.PerCollection[coll] = name
	}
	for oid, name := range v.PerObject {
		gen.PerObject[graph.OID(oid)] = name
	}
	for prefix, name := range v.ObjectTemplatePrefixes {
		gen.PerPrefix[prefix] = name
	}
	roots := make([]graph.OID, len(v.Roots))
	for i, r := range v.Roots {
		roots[i] = graph.OID(r)
	}
	return gen, roots, nil
}

func parseQueries(sources []string) ([]*struql.Query, error) {
	queries := make([]*struql.Query, len(sources))
	for i, src := range sources {
		q, err := struql.Parse(src)
		if err != nil {
			return nil, err
		}
		queries[i] = q
	}
	return queries, nil
}

// combined concatenates query blocks so one schema covers the whole
// composition.
func combined(queries []*struql.Query) *struql.Query {
	all := &struql.Query{}
	for _, q := range queries {
		all.Blocks = append(all.Blocks, q.Blocks...)
	}
	return all
}

// countQueryLines counts non-empty, non-comment lines — the paper's
// "115-line query" metric.
func countQueryLines(sources []string) int {
	n := 0
	for _, src := range sources {
		for _, line := range strings.Split(src, "\n") {
			t := strings.TrimSpace(line)
			if t == "" || strings.HasPrefix(t, "//") || strings.HasPrefix(t, "#") {
				continue
			}
			n++
		}
	}
	return n
}

func countTemplateLines(templates map[string]string) int {
	n := 0
	for _, src := range templates {
		for _, line := range strings.Split(src, "\n") {
			if strings.TrimSpace(line) != "" {
				n++
			}
		}
	}
	return n
}

func linkClauses(queries []*struql.Query) int {
	n := 0
	for _, q := range queries {
		n += q.LinkClauseCount()
	}
	return n
}

// GraphSourceOf wraps a plain graph as a source, re-exported so example
// programs depend only on core.
func GraphSourceOf(g *graph.Graph) struql.Source { return struql.NewGraphSource(g) }

// StaticSource wraps an already loaded graph as a mediator source.
func StaticSource(name string, g *graph.Graph) mediator.Source {
	return mediator.Source{Name: name, Load: func() (*graph.Graph, error) { return g, nil }}
}
