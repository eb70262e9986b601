//go:build benchprobe

// Command probe measures the layers of Strudel one at a time, from
// outside them: it times calls into each module's public functions over
// the same generated site the workloads use, and prints one JSON object
// of per-layer metrics. It is the only benchmark code that imports
// internal/, and it sits behind a build tag so that a change to one of
// the signatures it calls (the probe surface, listed in the README)
// cannot break `go build ./...` in this module: the end-to-end verdict
// survives, and the per-layer numbers are absent, with probe.ok = 0,
// until the probe is repaired.
//
// A nested layer's self time is the outer call's median minus the inner
// call's over the same sample of pages or queries.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"strudel/bench/gen"
	"strudel/internal/core"
	"strudel/internal/ddl"
	"strudel/internal/diag"
	"strudel/internal/dynamic"
	"strudel/internal/fleet"
	"strudel/internal/fsx"
	"strudel/internal/graph"
	"strudel/internal/htmlgen"
	"strudel/internal/ivm"
	"strudel/internal/mediator"
	"strudel/internal/obs"
	"strudel/internal/queryapi"
	"strudel/internal/repo"
	"strudel/internal/schema"
	"strudel/internal/struql"
	"strudel/internal/template"
	"strudel/internal/wrapper/bibtex"
	"strudel/internal/wrapper/csvrel"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type probe struct {
	siteDir string
	tmp     string
	passes  int // serving side
	builds  int // batch side
	sample  int
	edits   int
	out     map[string]metric
}

func main() {
	var (
		seed      = flag.Int64("seed", 1, "generator seed")
		batchPubs = flag.Int("batch-pubs", 300, "scale of the site the batch-side layers are measured on")
		servePubs = flag.Int("serve-pubs", 300, "scale of the site the serving-side layers are measured on")
		siteDir   = flag.String("site", "", "directory holding site.struql and the templates")
		tmp       = flag.String("tmp", "", "scratch directory")
		passes    = flag.Int("passes", 3, "timing passes over the serving-side layers that are timed as a whole (fleet.New, SwapData); the median is reported")
		builds    = flag.Int("builds", 9, "timing passes over the batch-side layers, each a whole build; the median is reported")
		sample    = flag.Int("sample", 48, "pages and queries per serving-side pass")
		edits     = flag.Int("edits", 20, "scripted edits replayed through the incremental path")
	)
	buildPass := flag.Bool("build-pass", false, "internal: time one build over the sources batchSide wrote, print the stage times")
	flag.Parse()
	p := &probe{siteDir: *siteDir, tmp: *tmp, passes: *passes, builds: *builds, sample: *sample, edits: *edits, out: map[string]metric{}}
	if *buildPass {
		b, err := p.buildOnce(filepath.Join(p.tmp, "batch-in"), filepath.Join(p.tmp, "published"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "probe: build pass:", err)
			os.Exit(1)
		}
		json.NewEncoder(os.Stdout).Encode(b)
		return
	}
	if err := p.batchSide(*seed, *batchPubs); err != nil {
		fmt.Fprintln(os.Stderr, "probe: batch side:", err)
		os.Exit(1)
	}
	if err := p.serveSide(*seed, *servePubs); err != nil {
		fmt.Fprintln(os.Stderr, "probe: serving side:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(p.out); err != nil {
		os.Exit(1)
	}
}

func (p *probe) set(name string, v float64, unit string) { p.out[name] = metric{v, unit} }

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
func usSince(t time.Time) float64 { return float64(time.Since(t)) / 1e3 }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// writeSite generates the site and writes its source files into dir.
func writeSite(dir string, seed int64, pubs int) (*gen.Site, error) {
	s := gen.New(seed, pubs)
	return s, s.WriteFiles(dir)
}

func read(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// batchSources are the sources as cmd/strudel assembles them: two CSV
// tables, one DDL file, one BibTeX file, each with its lenient loader.
func batchSources(dir string) []mediator.Source {
	csvSrc := func(table, file string) mediator.Source {
		path, name := filepath.Join(dir, file), "csv:"+file
		opts := csvrel.Options{Table: table, KeyColumn: "id"}
		return mediator.Source{Name: name,
			Load:        func() (*graph.Graph, error) { return csvrel.Load(read(path), opts) },
			LoadLenient: func() (*graph.Graph, *diag.Report, error) { return csvrel.LoadLenient(read(path), name, opts) }}
	}
	ddlPath, bibPath := filepath.Join(dir, "projects.ddl"), filepath.Join(dir, "pubs.bib")
	return []mediator.Source{
		csvSrc("People", "people.csv"),
		csvSrc("Orgs", "orgs.csv"),
		{Name: "ddl:projects.ddl",
			Load: func() (*graph.Graph, error) {
				doc, err := ddl.Parse(read(ddlPath))
				if err != nil {
					return nil, err
				}
				return doc.Graph, nil
			},
			LoadLenient: func() (*graph.Graph, *diag.Report, error) {
				doc, rep := ddl.ParseLenient(read(ddlPath), "ddl:projects.ddl")
				return doc.Graph, rep, nil
			}},
		{Name: "bib:pubs.bib",
			Load: func() (*graph.Graph, error) { return bibtex.Load(read(bibPath), bibtex.DefaultOptions()) },
			LoadLenient: func() (*graph.Graph, *diag.Report, error) {
				g, rep := bibtex.LoadLenient(read(bibPath), "bib:pubs.bib", bibtex.DefaultOptions())
				return g, rep, nil
			}},
	}
}

// sourceOf names the mediator source an edited file belongs to.
func sourceOf(file string) string {
	switch filepath.Ext(file) {
	case ".csv":
		return "csv:" + file
	case ".bib":
		return "bib:" + file
	}
	return "ddl:" + file
}

func (p *probe) templates() map[string]string {
	files, _ := filepath.Glob(filepath.Join(p.siteDir, "*.tmpl"))
	out := map[string]string{}
	for _, f := range files {
		out[strings.TrimSuffix(filepath.Base(f), ".tmpl")] = read(f)
	}
	return out
}

// constructionSite is one block of the query with the where clauses of
// every enclosing block conjoined: the unit whose relation EvalWhere
// computes and ConstructOnly turns into site-graph edges.
type constructionSite struct {
	blk   *struql.Block
	conds []struql.Cond
}

func flatten(blk *struql.Block, prefix []struql.Cond) []constructionSite {
	conds := append(append([]struql.Cond(nil), prefix...), blk.Where...)
	var out []constructionSite
	// Aggregate blocks regroup their relation before constructing; the
	// where/construct split does not apply to them (eval_ms covers them).
	if len(blk.Aggregate) == 0 && len(blk.Create)+len(blk.Link)+len(blk.Collect) > 0 {
		out = append(out, constructionSite{blk, conds})
	}
	for _, n := range blk.Nested {
		out = append(out, flatten(n, conds)...)
	}
	return out
}

// lenient is how cmd/strudel builds by default: dirty input is skipped
// within a 10 % error budget per source.
func lenient() (*core.Options, error) {
	budget, err := diag.ParseBudget("10%")
	return &core.Options{Lenient: true, Budget: budget}, err
}

// built is one pass through the layers of a build, in build order: how
// long each stage took, in milliseconds, and what it made.
type built struct {
	Stage         map[string]float64 `json:"stage"`
	med           *mediator.Mediator
	data          *repo.Indexed
	out           *htmlgen.Output
	rows          int
	snapshotBytes int
}

// buildOnce runs the stages of one build over the sources in dir and
// publishes into pubDir.
func (p *probe) buildOnce(dir, pubDir string) (*built, error) {
	opts, err := lenient()
	if err != nil {
		return nil, err
	}
	b := &built{Stage: map[string]float64{}}

	srcs := batchSources(dir)
	t := time.Now()
	for _, s := range srcs {
		if _, _, err := s.LoadLenient(); err != nil {
			return nil, err
		}
	}
	b.Stage["wrapper.load_ms"] = msSince(t)

	t = time.Now()
	if b.med, err = mediator.New(srcs...); err != nil {
		return nil, err
	}
	if b.data, _, err = b.med.WarehouseLenient(opts.Budget); err != nil {
		return nil, err
	}
	b.Stage["mediator.warehouse_ms"] = msSince(t) - b.Stage["wrapper.load_ms"]

	t = time.Now()
	frozen := b.data.Frozen()
	b.Stage["graph.freeze_ms"] = msSince(t)

	t = time.Now()
	enc := repo.EncodeBinaryFrozen(frozen)
	b.Stage["repo.encode_ms"] = msSince(t)
	b.snapshotBytes = len(enc)
	t = time.Now()
	if _, err := repo.DecodeBinaryFrozen(enc); err != nil {
		return nil, err
	}
	b.Stage["repo.decode_ms"] = msSince(t)

	t = time.Now()
	q, err := struql.Parse(read(filepath.Join(p.siteDir, "site.struql")))
	if err != nil {
		return nil, err
	}
	if _, err := struql.Explain(q, b.data, opts.EvalOptions()); err != nil {
		return nil, err
	}
	b.Stage["struql.parse_plan_ms"] = msSince(t)

	// What a build pays for the query: the whole of it, evaluated once.
	t = time.Now()
	siteGraph, err := struql.EvalSeq([]*struql.Query{q}, b.data, opts.EvalOptions())
	if err != nil {
		return nil, err
	}
	b.Stage["struql.eval_ms"] = msSince(t)

	t = time.Now()
	ts := template.NewSet()
	for name, src := range p.templates() {
		if err := ts.Add(name, src); err != nil {
			return nil, err
		}
	}
	b.Stage["template.parse_ms"] = msSince(t)

	t = time.Now()
	g := htmlgen.New(siteGraph, ts)
	if b.out, err = g.Generate([]graph.OID{"HomePage()"}); err != nil {
		return nil, err
	}
	b.Stage["htmlgen.generate_ms"] = msSince(t)

	t = time.Now()
	if err := b.out.Publish(fsx.OS, pubDir, nil); err != nil {
		return nil, err
	}
	b.Stage["htmlgen.publish_ms"] = msSince(t)

	// Outside the build's own sequence, so after it: the same query split
	// into where and construct, per block with its ancestors' conditions
	// conjoined, as ivm flattens them.
	env := struql.NewSkolemEnv()
	for _, blk := range q.Blocks {
		for _, cs := range flatten(blk, nil) {
			t = time.Now()
			rows, err := struql.EvalWhere(cs.conds, b.data, nil, opts.EvalOptions())
			if err != nil {
				return nil, err
			}
			b.Stage["struql.where_ms"] += msSince(t)
			b.rows += len(rows.Rows)
			t = time.Now()
			if _, err := struql.ConstructOnly(cs.blk, rows, env); err != nil {
				return nil, err
			}
			b.Stage["struql.construct_ms"] += msSince(t)
		}
	}
	return b, nil
}

// batchSide times the layers a build runs through and then the
// incremental path over a scripted run of edits. Each timing pass over
// the build's layers is a process of its own (this program again, with
// -build-pass), because a build is: it starts with an empty heap, a
// collector that runs every few megabytes, cold plan caches and memory
// that has yet to fault in, and the same stages timed over and over in
// one warm process came out a quarter cheaper than builds pay for them.
func (p *probe) batchSide(seed int64, pubs int) error {
	dir := filepath.Join(p.tmp, "batch-in")
	site, err := writeSite(dir, seed, pubs)
	if err != nil {
		return err
	}
	stages := map[string][]float64{}
	for pass := 0; pass < p.builds; pass++ {
		cmd := exec.Command(os.Args[0], "-build-pass", "-site", p.siteDir, "-tmp", p.tmp)
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("build pass: %v", err)
		}
		var b built
		if err := json.Unmarshal(raw, &b); err != nil {
			return fmt.Errorf("build pass: %v", err)
		}
		for name, v := range b.Stage {
			stages[name] = append(stages[name], v)
		}
		if err := os.RemoveAll(filepath.Join(p.tmp, "published")); err != nil {
			return err
		}
	}
	for name, vs := range stages {
		p.set(name, median(vs), "ms")
	}

	// One more pass here, for what the stages make: the counts, and the
	// warehouse and site the incremental path starts from.
	b, err := p.buildOnce(dir, filepath.Join(p.tmp, "published"))
	if err != nil {
		return err
	}
	med, data := b.med, b.data
	bytesOut := 0
	for _, page := range b.out.Pages {
		bytesOut += len(page)
	}
	if b.out.PageCount() != site.PageCount() {
		return fmt.Errorf("generated %d pages, the site has %d", b.out.PageCount(), site.PageCount())
	}
	p.set("graph.edges", float64(data.NumEdges()), "count")
	p.set("repo.snapshot_bytes", float64(b.snapshotBytes), "count")
	p.set("struql.rows", float64(b.rows), "count")
	p.set("htmlgen.pages", float64(b.out.PageCount()), "count")
	p.set("htmlgen.bytes", float64(bytesOut), "count")

	opts, err := lenient()
	if err != nil {
		return err
	}
	querySrc := read(filepath.Join(p.siteDir, "site.struql"))
	tmpl := p.templates()

	// The incremental path, as cmd/strudel's watcher drives it: refresh
	// the edited source, apply the delta, publish the patch.
	version := &core.Version{Name: "main", Queries: []string{querySrc}, Templates: tmpl, Roots: []string{"HomePage()"}}
	im := &obs.IVMMetrics{}
	t := time.Now()
	isite, err := ivm.NewSite(version, data, opts, im)
	if err != nil {
		return err
	}
	p.set("ivm.newsite_ms", msSince(t), "ms")
	pubDir := filepath.Join(p.tmp, "patched")
	if err := isite.Publish(fsx.OS, pubDir, nil); err != nil {
		return err
	}
	linked0, written0 := im.PagesLinked.Load(), im.PagesWritten.Load()
	var refresh, deltaEdges, apply, patch []float64
	for i := 0; i < p.edits; i++ {
		ed := site.NextEdit()
		var delta *mediator.Delta
		t = time.Now()
		for file, content := range ed.Files {
			if err := os.WriteFile(filepath.Join(dir, file), content, 0o644); err != nil {
				return err
			}
			d, err := med.Refresh(sourceOf(file))
			if err != nil {
				return err
			}
			if delta == nil {
				delta = d
			} else {
				delta.Merge(d)
			}
		}
		delta.Compact()
		refresh = append(refresh, msSince(t))
		deltaEdges = append(deltaEdges, float64(delta.Size()))
		t = time.Now()
		if err := isite.Apply(repo.NewIndexed(med.DataGraph()), delta); err != nil {
			return err
		}
		apply = append(apply, msSince(t))
		t = time.Now()
		if err := isite.Publish(fsx.OS, pubDir, nil); err != nil {
			return err
		}
		patch = append(patch, msSince(t))
	}
	linked, written := float64(im.PagesLinked.Load()-linked0), float64(im.PagesWritten.Load()-written0)
	applied, rebuilt := float64(im.DeltasApplied.Load()), float64(im.FullRebuilds.Load())
	p.set("mediator.refresh_ms", median(refresh), "ms")
	p.set("mediator.delta_edges", median(deltaEdges), "count")
	p.set("ivm.apply_ms", median(apply), "ms")
	p.set("ivm.dirty_pages", float64(im.DirtyPages.Load())/float64(p.edits), "count")
	p.set("ivm.delta_applied_share", share(applied, applied+rebuilt), "share")
	p.set("htmlgen.publish_patch_ms", median(patch), "ms")
	p.set("htmlgen.patch_written_share", share(written, written+linked), "share")
	return nil
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// serveSources are the sources as cmd/strudel-serve assembles them: DDL
// and BibTeX only, strict loaders.
func serveSources(dir string) []mediator.Source {
	ddlSrc := func(file string) mediator.Source {
		path := filepath.Join(dir, file)
		return mediator.Source{Name: "ddl:" + file, Load: func() (*graph.Graph, error) {
			doc, err := ddl.Parse(read(path))
			if err != nil {
				return nil, err
			}
			return doc.Graph, nil
		}}
	}
	bibPath := filepath.Join(dir, "pubs.bib")
	return []mediator.Source{
		ddlSrc("people.ddl"), ddlSrc("orgs.ddl"), ddlSrc("projects.ddl"),
		{Name: "bib:pubs.bib", Load: func() (*graph.Graph, error) { return bibtex.Load(read(bibPath), bibtex.DefaultOptions()) }},
	}
}

// pageSample turns generated pages into the refs and URLs the serving
// tier addresses them by.
type pageSample struct {
	url string
	key string
	ref dynamic.PageRef
}

// samplePages picks n pages evenly spread over pages, each shifted by
// offset places; different offsets below the spacing give disjoint
// samples.
func samplePages(pages []gen.Page, n, offset int) ([]pageSample, error) {
	if n > len(pages) {
		n = len(pages)
	}
	out := make([]pageSample, 0, n)
	for i := 0; i < n; i++ {
		pg := pages[(i*len(pages)/n+offset)%len(pages)]
		key, err := url.PathUnescape(strings.TrimPrefix(pg.URL, "/page/"))
		if err != nil {
			return nil, err
		}
		ref, err := fleet.DecodeRef(key)
		if err != nil {
			return nil, err
		}
		out = append(out, pageSample{url: pg.URL, key: fleet.EncodeRef(ref), ref: ref})
	}
	return out, nil
}

// serveSide times the click-time path from the inside out: evaluator,
// replica render, fleet fetch, edge, HTTP hop; then queries the same way.
func (p *probe) serveSide(seed int64, pubs int) error {
	dir := filepath.Join(p.tmp, "serve-in")
	site, err := writeSite(dir, seed, pubs)
	if err != nil {
		return err
	}
	med, err := mediator.New(serveSources(dir)...)
	if err != nil {
		return err
	}
	data, err := med.Warehouse()
	if err != nil {
		return err
	}
	q, err := struql.Parse(string(gen.ServeQuery([]byte(read(filepath.Join(p.siteDir, "site.struql"))))))
	if err != nil {
		return err
	}
	sch := schema.Build(q)
	ts := template.NewSet()
	perFn := map[string]string{}
	for name, src := range p.templates() {
		if err := ts.Add(name, src); err != nil {
			return err
		}
		perFn[name] = name
	}
	cfg := fleet.Config{Schema: sch, Templates: ts, PerFn: perFn, Shards: 2, Replicas: 2}

	var newMS []float64
	var fl *fleet.Fleet
	for pass := 0; pass < p.passes; pass++ {
		t := time.Now()
		if fl, err = fleet.New(cfg, data); err != nil {
			return err
		}
		newMS = append(newMS, msSince(t))
	}
	p.set("fleet.new_ms", median(newMS), "ms")

	// The sample is spread over the entity pages; a disjoint warm-up set
	// stands for the pages a server has already answered, whose shared
	// fragments (navigation bar, index nodes) the sample should not pay
	// for.
	entity := site.EntityPages()
	pages, err := samplePages(entity, p.sample, 0)
	if err != nil {
		return err
	}
	var warm []pageSample
	for offset := 1; offset <= 4 && offset < len(entity)/p.sample; offset++ {
		more, err := samplePages(entity, p.sample, offset)
		if err != nil {
			return err
		}
		warm = append(warm, more...)
	}
	ctx := context.Background()
	get := func(h http.Handler, path string) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", path, rec.Code)
		}
		return nil
	}
	renderOnAll := func(set []pageSample) error {
		for _, pg := range set {
			for i := 0; i < cfg.Replicas; i++ {
				if _, _, err := fl.Replica(fl.Route(pg.key), i).Render(ctx, pg.ref); err != nil {
					return err
				}
			}
		}
		return nil
	}

	// The evaluator alone: a page's own node, uncached and cached.
	var pageCold, pageHot, renderCold, renderHot, fetchHot, edgeMiss, edgeHit, hop []float64
	ev := dynamic.NewEvaluator(sch, data)
	for _, pg := range warm {
		if _, err := ev.PageCtx(ctx, pg.ref); err != nil {
			return err
		}
	}
	for _, pg := range pages {
		t := time.Now()
		if _, err := ev.PageCtx(ctx, pg.ref); err != nil {
			return err
		}
		pageCold = append(pageCold, usSince(t))
		t = time.Now()
		if _, err := ev.PageCtx(ctx, pg.ref); err != nil {
			return err
		}
		pageHot = append(pageHot, usSince(t))
	}

	// A replica's render, first against a freshly invalidated generation
	// (the same data swapped in with an unknown delta), which pays for
	// the page's node and every neighbour it embeds or names; then again
	// with all of those cached, which is the template work alone.
	fl.SwapData(data, nil)
	if err := renderOnAll(warm); err != nil {
		return err
	}
	for _, pg := range pages {
		rep := fl.Replica(fl.Route(pg.key), 0)
		t := time.Now()
		if _, _, err := rep.Render(ctx, pg.ref); err != nil {
			return err
		}
		renderCold = append(renderCold, usSince(t))
		t = time.Now()
		if _, _, err := rep.Render(ctx, pg.ref); err != nil {
			return err
		}
		renderHot = append(renderHot, usSince(t))
	}
	// The layers above the replica are timed with every evaluator warm,
	// so that what is subtracted is a steady render and not a cold one
	// whose cost depends on which replica saw which neighbour first.
	if err := renderOnAll(pages); err != nil {
		return err
	}
	for _, pg := range pages {
		t := time.Now()
		if _, _, err := fl.Fetch(ctx, fl.Route(pg.key), pg.key, pg.ref); err != nil {
			return err
		}
		fetchHot = append(fetchHot, usSince(t))
	}
	edge := fleet.NewEdge(fl).Handler()
	for _, pg := range pages {
		t := time.Now()
		if err := get(edge, pg.url); err != nil {
			return err
		}
		edgeMiss = append(edgeMiss, usSince(t))
		t = time.Now()
		if err := get(edge, pg.url); err != nil {
			return err
		}
		edgeHit = append(edgeHit, usSince(t))
	}
	hs := httptest.NewServer(edge)
	client := hs.Client()
	for round := 0; round < 2; round++ { // the first round opens the connection
		hop = hop[:0]
		for _, pg := range pages {
			t := time.Now()
			resp, err := client.Get(hs.URL + pg.url)
			if err != nil {
				hs.Close()
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			hop = append(hop, usSince(t))
		}
	}
	hs.Close()
	p.set("dynamic.page_cold_us", median(pageCold), "us")
	p.set("dynamic.page_hot_us", median(pageHot), "us")
	p.set("template.render_us", median(renderHot), "us")
	p.set("fleet.render_cold_us", median(renderCold), "us")
	p.set("fleet.fetch_us", median(fetchHot)-median(renderHot), "us")
	p.set("fleet.edge_miss_us", median(edgeMiss)-median(fetchHot), "us")
	p.set("fleet.edge_hit_us", median(edgeHit), "us")
	p.set("fleet.http_hop_us", median(hop)-median(edgeHit), "us")

	// Queries: the bare evaluation, then the service around it.
	queries := site.Queries(p.sample)
	frozenSrc := repo.NewIndexedFrozen(data.Frozen())
	var evalUS, apiCold, apiHot []float64
	for _, qu := range queries {
		t := time.Now()
		conds, err := struql.ParseWhere(qu.Text)
		if err != nil {
			return err
		}
		b, err := struql.EvalWhereCtx(ctx, conds, frozenSrc, nil, nil)
		if err != nil {
			return err
		}
		evalUS = append(evalUS, usSince(t))
		if len(b.Rows) != qu.Rows {
			return fmt.Errorf("query %q: %d rows, the generator counts %d", qu.Text, len(b.Rows), qu.Rows)
		}
	}
	svc := (&queryapi.Service{Backend: fl}).Handler()
	post := func(text string) error {
		body, _ := json.Marshal(map[string]string{"query": text})
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(string(body))))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("POST /query %q: status %d", text, rec.Code)
		}
		return nil
	}
	for _, qu := range queries {
		t := time.Now()
		if err := post(qu.Text); err != nil {
			return err
		}
		apiCold = append(apiCold, usSince(t))
		t = time.Now()
		if err := post(qu.Text); err != nil {
			return err
		}
		apiHot = append(apiHot, usSince(t))
	}
	p.set("struql.evalwhere_us", median(evalUS), "us")
	p.set("queryapi.cold_us", median(apiCold)-median(evalUS), "us")
	p.set("queryapi.hot_us", median(apiHot), "us")

	// A hot reload as the reloader performs it: refresh the edited
	// source, then swap the new graph into every replica.
	var swap []float64
	for pass := 0; pass < p.passes; pass++ {
		ed := site.Retitle()
		if err := os.WriteFile(filepath.Join(dir, "pubs.bib"), ed.Files["pubs.bib"], 0o644); err != nil {
			return err
		}
		delta, err := med.Refresh("bib:pubs.bib")
		if err != nil {
			return err
		}
		next := repo.NewIndexed(med.DataGraph())
		t := time.Now()
		fl.SwapData(next, delta)
		swap = append(swap, msSince(t))
	}
	p.set("fleet.swap_ms", median(swap), "ms")
	return nil
}
