// Package htmlgen is Strudel's HTML generator (§2.4): it takes a site
// graph and a set of HTML templates and produces the browsable web site.
//
// For every internal object the generator selects a template: (1) an
// object-specific template, (2) the value of the object's HTML-template
// attribute, or (3) the template associated with a collection the object
// belongs to; a built-in attribute-listing template is the last resort.
// Whether an object is realized as its own page or embedded into pages
// that refer to it is decided here, at generation time, by how templates
// reference it: plain references become links (and schedule the target as
// a page); EMBED references inline the object's rendering.
//
// Generation is parallel and deterministic. Pages are produced in BFS
// waves: every page of the current frontier renders concurrently against
// the read-only site graph, emitting placeholder tokens where link targets
// belong; a serial merge pass then walks the wave in order, assigns file
// names exactly as the sequential queue would, substitutes the
// placeholders, and schedules the next frontier. Output is byte-identical
// at every Parallelism setting.
package htmlgen

import (
	"fmt"
	"html"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"strudel/internal/fsx"
	"strudel/internal/graph"
	"strudel/internal/obs"
	"strudel/internal/template"
)

// Generator renders a site graph to HTML pages.
type Generator struct {
	Site      *graph.Graph
	Templates *template.Set
	// PerObject maps an oid to a template name (selection rule 1).
	PerObject map[graph.OID]string
	// PerPrefix maps an oid prefix (typically a Skolem function, e.g.
	// "YearPage(") to a template name; the longest matching prefix wins.
	// Checked after PerObject and before the HTML-template attribute.
	PerPrefix map[string]string
	// TemplateAttr is the attribute consulted by selection rule 2;
	// defaults to "HTML-template".
	TemplateAttr string
	// PerCollection maps a collection name to a template name (rule 3).
	PerCollection map[string]string
	// Default names a template used when no rule matches; when empty, a
	// built-in attribute listing is used.
	Default string
	// ReadFile resolves file atoms for EMBED; defaults to os.ReadFile.
	ReadFile func(path string) ([]byte, error)
	// Parallelism is the worker count for wave rendering: 0 uses one
	// worker per available CPU, 1 forces sequential generation. Output
	// bytes and file names are identical at every setting.
	Parallelism int
	// Obs, when non-nil, receives page counts and per-wave render
	// timings. Nil (the default) disables instrumentation.
	Obs *obs.GenMetrics
}

// New returns a generator over the site graph and templates.
func New(site *graph.Graph, ts *template.Set) *Generator {
	return &Generator{
		Site:          site,
		Templates:     ts,
		PerObject:     map[graph.OID]string{},
		PerPrefix:     map[string]string{},
		PerCollection: map[string]string{},
		TemplateAttr:  "HTML-template",
		ReadFile:      os.ReadFile,
	}
}

func (g *Generator) parallelism() int {
	if g.Parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if g.Parallelism < 1 {
		return 1
	}
	return g.Parallelism
}

// Output is a generated site: page file names and their HTML.
type Output struct {
	// Pages maps file name → HTML text.
	Pages map[string]string
	// PageFiles maps realized object → its file name.
	PageFiles map[graph.OID]string
	// Refs maps each page's object to the objects its rendered links
	// point at, and Roots records the generation roots; together they let
	// incremental regeneration drop pages that are no longer reachable.
	Refs  map[graph.OID][]graph.OID
	Roots []graph.OID
	// reads maps each page's object to everything its rendering read
	// from the site graph, embedded objects and anchor texts included,
	// as sorted distinct keys of readIDs. Incremental regeneration
	// dirties exactly the pages whose reads a site-graph change touches.
	reads   map[graph.OID][]readKey
	readIDs readTable
	// readers inverts reads. Regenerate builds it on first use and keeps
	// it current, so a batch build never pays for it.
	readers map[readKey][]graph.OID
}

// Changes is what one site-graph update touched, in the terms pages
// read it by.
type Changes struct {
	// Edges holds the source and label of every edge added or removed.
	Edges []Attr
	// Members holds every object that joined or left a collection.
	Members []graph.OID
	// Nodes holds every object added to or removed from the graph.
	Nodes []graph.OID
}

// Attr names the edges of one object with one label.
type Attr struct {
	OID   graph.OID
	Label string
}

// Empty reports whether the update touched nothing.
func (c *Changes) Empty() bool {
	return len(c.Edges) == 0 && len(c.Members) == 0 && len(c.Nodes) == 0
}

// A read is one thing a page's rendering consulted in the site graph:
// the edges of oid labelled label, or, by kind, all of oid's edges or
// its collection memberships. A read is recorded whether or not it
// found anything: an edge added later changes what it would return.
type read struct {
	oid   graph.OID
	label string
	kind  readKind
}

// readKind says how much of an object a read covers.
type readKind uint8

const (
	// labelRead is a read of the object's edges with one label: every
	// template attribute, anchor text and HTML-template lookup.
	labelRead readKind = iota
	// edgesRead is a read of all the object's edges: the built-in
	// attribute listing.
	edgesRead
	// collectionsRead is a read of the collections the object belongs
	// to: template selection rule 3.
	collectionsRead
)

// readKey packs one read into eight bytes: its object's and label's
// numbers in the output's readTable, and its kind. Read sets live as
// long as the output, so they are stored packed.
type readKey uint64

// readTable numbers the objects and labels of the stored read sets.
// Render workers add to it concurrently, one page's reads at a time; a
// page's reads are released when the page is re-rendered or dropped,
// so the table holds only what some live page reads.
type readTable struct {
	mu     sync.Mutex
	oids   interner[graph.OID]
	labels interner[string]
}

// keys returns the sorted distinct keys of reads and holds them,
// numbering objects and labels seen for the first time.
func (t *readTable) keys(reads []read) []readKey {
	keys := make([]readKey, len(reads))
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, r := range reads {
		keys[i] = readKey(t.oids.number(r.oid))<<32 | readKey(t.labels.number(r.label))<<2 | readKey(r.kind)
	}
	slices.Sort(keys)
	keys = slices.Clone(slices.Compact(keys))
	for _, k := range keys {
		t.oids.refs[k>>32]++
		t.labels.refs[uint32(k)>>2]++
	}
	return keys
}

// release drops one hold on each key, freeing the numbers no stored
// key names any more.
func (t *readTable) release(keys []readKey) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, k := range keys {
		t.oids.release(uint32(k >> 32))
		t.labels.release(uint32(k) >> 2)
	}
}

// key returns r's key; ok is false when no page reads r's object or
// label.
func (t *readTable) key(r read) (k readKey, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	o, ok := t.oids.ids[r.oid]
	if !ok {
		return 0, false
	}
	l, ok := t.labels.ids[r.label]
	return readKey(o)<<32 | readKey(l)<<2 | readKey(r.kind), ok
}

// interner numbers values and counts the stored keys naming each
// number; a number whose count falls to zero is reused.
type interner[T comparable] struct {
	ids  map[T]uint32
	at   []T
	refs []int32
	free []uint32
}

func (in *interner[T]) number(v T) uint32 {
	if n, ok := in.ids[v]; ok {
		return n
	}
	if in.ids == nil {
		in.ids = map[T]uint32{}
	}
	var n uint32
	if last := len(in.free) - 1; last >= 0 {
		n, in.free = in.free[last], in.free[:last]
		in.at[n] = v
	} else {
		n = uint32(len(in.at))
		in.at = append(in.at, v)
		in.refs = append(in.refs, 0)
	}
	in.ids[v] = n
	return n
}

func (in *interner[T]) release(n uint32) {
	if in.refs[n]--; in.refs[n] == 0 {
		var zero T
		delete(in.ids, in.at[n])
		in.at[n] = zero
		in.free = append(in.free, n)
	}
}

// PageNameError reports a page name that cannot be written safely under
// the output directory.
type PageNameError struct {
	Name   string
	Reason string
}

func (e *PageNameError) Error() string {
	return fmt.Sprintf("htmlgen: bad page name %q: %s", e.Name, e.Reason)
}

// checkPageName rejects names that would land outside the output
// directory. Slash-separated names are allowed and create subdirectories.
func checkPageName(name string) error {
	switch {
	case name == "":
		return &PageNameError{Name: name, Reason: "empty"}
	case strings.ContainsRune(name, '\x00'):
		return &PageNameError{Name: name, Reason: "contains NUL"}
	case filepath.IsAbs(name) || strings.HasPrefix(name, "/"):
		return &PageNameError{Name: name, Reason: "absolute path"}
	}
	clean := path.Clean(strings.ReplaceAll(name, "\\", "/"))
	if clean == "." || clean == ".." || strings.HasPrefix(clean, "../") {
		return &PageNameError{Name: name, Reason: "escapes the output directory"}
	}
	return nil
}

// WriteDir writes every page into dir, creating it as needed. Pages are
// partitioned in sorted-name order across a worker pool; when several
// writes fail, the error reported is the one for the first page in sorted
// order, so partial-write failures are deterministic. Page names are
// validated first: a name that is empty, absolute, or escapes dir via
// ".." fails the whole write with a *PageNameError before anything is
// written; names containing "/" get their subdirectories created.
func (o *Output) WriteDir(dir string) error {
	_, _, err := o.writeDir(fsx.OS, dir, "", nil)
	return err
}

// writeDir stages every page into dir as WriteDir describes. When from
// is non-empty, a page not in dirty whose copy under from has the page's
// size is hard-linked to that copy instead of written; a missing copy or
// a failed link (cross-device, permissions, injected fault) falls back
// to a durable write. It returns how many pages were linked and written.
func (o *Output) writeDir(fsys fsx.FS, dir, from string, dirty map[string]bool) (linked, written int, err error) {
	names := o.SortedPageNames()
	// Validate every name and collect subdirectories before touching the
	// filesystem, so a bad name cannot leave a half-written directory.
	subdirs := map[string]bool{}
	for _, name := range names {
		if err := checkPageName(name); err != nil {
			return 0, 0, err
		}
		if d := filepath.Dir(filepath.FromSlash(name)); d != "." {
			subdirs[d] = true
		}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, fmt.Errorf("htmlgen: %w", err)
	}
	dirs := make([]string, 0, len(subdirs))
	for d := range subdirs {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	for _, d := range dirs {
		if err := fsys.MkdirAll(filepath.Join(dir, d), 0o755); err != nil {
			return 0, 0, fmt.Errorf("htmlgen: %w", err)
		}
	}
	// stage reports whether it linked the page (false: written).
	stage := func(name string) (bool, error) {
		rel := filepath.FromSlash(name)
		dst := filepath.Join(dir, rel)
		body := []byte(o.Pages[name])
		if from != "" && !dirty[name] {
			src := filepath.Join(from, rel)
			if fi, err := fsys.Stat(src); err == nil && fi.Size() == int64(len(body)) && fsys.Link(src, dst) == nil {
				return true, nil
			}
		}
		if err := fsys.WriteFile(dst, body, 0o644); err != nil {
			return false, fmt.Errorf("htmlgen: write %s: %w", name, err)
		}
		return false, nil
	}
	// Contiguous chunks of the sorted names; each worker stops at its
	// first failure and the merge keeps the failure with the smallest
	// global index.
	par := max(1, min(runtime.GOMAXPROCS(0), len(names)))
	type result struct {
		linked, written, errIdx int
		err                     error
	}
	results := make([]result, par)
	var wg sync.WaitGroup
	chunk := (len(names) + par - 1) / par
	for w := 0; w < par; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(names))
		wg.Add(1)
		go func(res *result, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				link, err := stage(names[i])
				if err != nil {
					res.errIdx, res.err = i, err
					return
				}
				if link {
					res.linked++
				} else {
					res.written++
				}
			}
		}(&results[w], lo, hi)
	}
	wg.Wait()
	var first *result
	for w := range results {
		res := &results[w]
		linked += res.linked
		written += res.written
		if res.err != nil && (first == nil || res.errIdx < first.errIdx) {
			first = res
		}
	}
	if first != nil {
		err = first.err
	}
	return linked, written, err
}

// Publish atomically replaces dir with the generated site. The pages are
// staged into a sibling temp directory (durable writes), verify — when
// non-nil — inspects the staged tree (integrity constraints, link checks)
// and can veto publication, and only then is the staged tree swapped into
// place with two renames: the previous generation moves to dir+".prev"
// (kept for rollback) and the stage takes its name. A failure at any
// step, including mid-swap, leaves dir either untouched or fully new —
// readers never observe a half-written site. The parent directory is
// synced after the swap so the publication survives a crash.
func (o *Output) Publish(fsys fsx.FS, dir string, verify func(stage string) error) error {
	_, _, err := o.publish(fsys, dir, "", nil, verify)
	return err
}

// PublishPatch atomically replaces dir with the generated site like
// Publish, but stages unchanged pages as hard links to the currently
// published files instead of rewriting their bytes. Only the pages named
// in dirty — plus any whose published copy is missing or the wrong size,
// or whose link attempt fails — are durably written from memory, so a
// localized edit republishes a thousand-page site with a handful of
// writes. The swap itself is Publish's: readers see the old tree or the
// complete new one, never a mix. When dir does not exist yet every page
// is written. Returns how many staged pages were hardlinked vs written.
func (o *Output) PublishPatch(fsys fsx.FS, dir string, dirty []string, verify func(stage string) error) (linked, written int, err error) {
	dirtySet := make(map[string]bool, len(dirty))
	for _, name := range dirty {
		dirtySet[name] = true
	}
	return o.publish(fsys, dir, dir, dirtySet, verify)
}

// publish stages the site (linking clean pages from the tree at from,
// when non-empty), lets verify veto it, and swaps it in for dir.
func (o *Output) publish(fsys fsx.FS, dir, from string, dirty map[string]bool, verify func(stage string) error) (linked, written int, err error) {
	stage := fmt.Sprintf("%s.tmp-%d", dir, os.Getpid())
	_ = fsys.RemoveAll(stage)
	if linked, written, err = o.writeDir(fsys, stage, from, dirty); err != nil {
		_ = fsys.RemoveAll(stage)
		return linked, written, err
	}
	if verify != nil {
		if err := verify(stage); err != nil {
			_ = fsys.RemoveAll(stage)
			return linked, written, fmt.Errorf("htmlgen: publish: verify: %w", err)
		}
	}
	return linked, written, swapIn(fsys, stage, dir, dir+".prev")
}

// swapIn replaces dir with the fully staged tree: the previous
// generation moves to prev (kept for rollback) and the stage takes its
// name, with the parent directory synced so the swap survives a crash.
// A failure at any step leaves dir either untouched or fully new, and
// consumes the stage either way.
func swapIn(fsys fsx.FS, stage, dir, prev string) error {
	if err := fsys.RemoveAll(prev); err != nil {
		_ = fsys.RemoveAll(stage)
		return fmt.Errorf("htmlgen: publish: %w", err)
	}
	hadOld := false
	if _, err := fsys.Stat(dir); err == nil {
		hadOld = true
		if err := fsys.Rename(dir, prev); err != nil {
			_ = fsys.RemoveAll(stage)
			return fmt.Errorf("htmlgen: publish: %w", err)
		}
	}
	if err := fsys.Rename(stage, dir); err != nil {
		if hadOld {
			// Put the previous generation back so dir never vanishes.
			_ = fsys.Rename(prev, dir)
		}
		_ = fsys.RemoveAll(stage)
		return fmt.Errorf("htmlgen: publish: %w", err)
	}
	if err := fsys.SyncDir(filepath.Dir(dir)); err != nil {
		return fmt.Errorf("htmlgen: publish: %w", err)
	}
	return nil
}

// PageCount returns the number of generated pages.
func (o *Output) PageCount() int { return len(o.Pages) }

// Generate renders the site starting from the root objects. The first
// root becomes index.html. Every object referenced without EMBED from a
// rendered page becomes a page of its own.
func (g *Generator) Generate(roots []graph.OID) (*Output, error) {
	out := &Output{
		Pages:     map[string]string{},
		PageFiles: map[graph.OID]string{},
		reads:     map[graph.OID][]readKey{},
		Refs:      map[graph.OID][]graph.OID{},
		Roots:     append([]graph.OID(nil), roots...),
	}
	st := &genState{g: g, out: out, usedNames: map[string]bool{}, pending: map[graph.OID]bool{}}
	for i, r := range roots {
		if !g.Site.HasNode(r) {
			return nil, fmt.Errorf("htmlgen: root %s is not in the site graph", r)
		}
		if i == 0 {
			st.fileFor(r, "index.html")
		}
		st.schedule(r)
	}
	if err := st.run(); err != nil {
		return nil, err
	}
	return out, nil
}

// Regenerate re-renders exactly the pages that read something the
// changes touched, found through the inverted read index: an edge's
// (source, label) dirties the pages that read that label of the source
// or listed all its edges, a membership change dirties the pages whose
// template selection consulted the object's collections, and a node
// change dirties the object's own page. Pages are replaced in the
// output in place; new objects referenced by re-rendered pages are
// generated as usual, and pages whose object vanished or that lost
// their last incoming link are dropped. Regeneration is sequential. Its
// cost follows the dirty pages, not the site, except that a pass in
// which some page lost a link walks the rendered links for orphans. It
// returns the file names of the re-rendered pages — the set a patch
// publication must write rather than hardlink; dropped pages are not
// listed (they simply no longer exist in Pages, so staging skips them).
func (g *Generator) Regenerate(out *Output, ch Changes) (redone []string, err error) {
	if out.readers == nil {
		out.indexReads()
	}
	dirty := map[graph.OID]bool{}
	mark := func(r read) {
		if k, ok := out.readIDs.key(r); ok {
			for _, page := range out.readers[k] {
				dirty[page] = true
			}
		}
	}
	for _, a := range ch.Edges {
		mark(read{oid: a.OID, label: a.Label})
		mark(read{oid: a.OID, kind: edgesRead})
	}
	for _, oid := range ch.Members {
		mark(read{oid: oid, kind: collectionsRead})
	}
	for _, oid := range ch.Nodes {
		if _, isPage := out.PageFiles[oid]; isPage {
			dirty[oid] = true
		}
	}
	st := &genState{g: g, out: out, usedNames: map[string]bool{}, pending: map[graph.OID]bool{}}
	pages := make([]graph.OID, 0, len(dirty))
	for oid := range dirty {
		pages = append(pages, oid)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	for _, oid := range pages {
		if !g.Site.HasNode(oid) {
			// The object vanished from the site graph: drop its page. Its
			// name stays taken for the rest of this pass.
			st.usedNames[out.PageFiles[oid]] = true
			st.dropPage(oid)
			continue
		}
		st.queue = append(st.queue, oid)
		st.pending[oid] = true
	}
	for len(st.queue) > 0 {
		oid := st.queue[0]
		st.queue = st.queue[1:]
		if _, done := out.Pages[out.PageFiles[oid]]; done && !dirty[oid] {
			continue // an existing clean page referenced by a dirty one
		}
		r := renderOne(g, &out.readIDs, oid)
		if r.err != nil {
			return redone, r.err
		}
		st.finish(oid, r)
		redone = append(redone, out.PageFiles[oid])
	}
	if st.lostRef {
		st.dropOrphans()
	}
	return redone, nil
}

// indexReads builds the inverted read index.
func (o *Output) indexReads() {
	o.readers = map[readKey][]graph.OID{}
	for page, keys := range o.reads {
		o.index(page, keys)
	}
}

// setReads replaces one page's read set, keeping the inverted index and
// the read table's holds current.
func (o *Output) setReads(page graph.OID, keys []readKey) {
	o.unindex(page)
	o.readIDs.release(o.reads[page])
	o.reads[page] = keys
	o.index(page, keys)
}

// index and unindex add or remove one page's reads in the inverted
// index, when it exists.
func (o *Output) index(page graph.OID, keys []readKey) {
	if o.readers == nil {
		return
	}
	for _, k := range keys {
		o.readers[k] = append(o.readers[k], page)
	}
}

func (o *Output) unindex(page graph.OID) {
	if o.readers == nil {
		return
	}
	for _, k := range o.reads[page] {
		pages := o.readers[k]
		for i, p := range pages {
			if p == page {
				pages[i] = pages[len(pages)-1]
				pages = pages[:len(pages)-1]
				break
			}
		}
		if len(pages) == 0 {
			delete(o.readers, k)
		} else {
			o.readers[k] = pages
		}
	}
}

// dropPage removes one object's page from the output.
func (st *genState) dropPage(oid graph.OID) {
	out := st.out
	if len(out.Refs[oid]) > 0 {
		st.lostRef = true
	}
	out.setReads(oid, nil)
	delete(out.Pages, out.PageFiles[oid])
	delete(out.PageFiles, oid)
	delete(out.reads, oid)
	delete(out.Refs, oid)
}

// dropOrphans removes pages no longer reachable from the roots through
// rendered references. A full build renders exactly the reference
// closure of the roots, so an object that keeps its site-graph node but
// loses its last rendered link must lose its page too, or the patched
// tree diverges from a from-scratch build. Only a pass that lost a
// reference can orphan a page, so only such a pass walks the site.
func (st *genState) dropOrphans() {
	out := st.out
	if out.Refs == nil || len(out.Roots) == 0 {
		return
	}
	reach := map[graph.OID]bool{}
	stack := append([]graph.OID(nil), out.Roots...)
	for len(stack) > 0 {
		oid := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reach[oid] {
			continue
		}
		reach[oid] = true
		stack = append(stack, out.Refs[oid]...)
	}
	for oid := range out.PageFiles {
		if !reach[oid] {
			st.dropPage(oid)
		}
	}
}

// genState is the serial side of generation: file-name assignment, the
// page queue, and the output maps. It is only ever touched by the
// coordinating goroutine; rendering happens in renderJobs.
type genState struct {
	g         *Generator
	out       *Output
	queue     []graph.OID
	usedNames map[string]bool
	// pending marks objects that have been scheduled, replacing the old
	// linear queue scan with an O(1) check that also covers pages of the
	// wave currently being rendered.
	pending map[graph.OID]bool
	// lostRef notes that a re-rendered or dropped page no longer links
	// an object it linked before, so some page may now be unreachable.
	lostRef bool
}

// run drains the queue in BFS waves: the whole frontier renders
// concurrently, then the merge pass finishes pages in frontier order,
// which reproduces the sequential queue's file-name assignment exactly.
func (st *genState) run() error {
	par := st.g.parallelism()
	for len(st.queue) > 0 {
		wave := st.queue
		st.queue = nil
		waveStart := time.Now()
		results := renderWave(st.g, &st.out.readIDs, wave, par)
		st.g.Obs.RecordWave(len(wave), int64(time.Since(waveStart)))
		for i, oid := range wave {
			if results[i].err != nil {
				// The first failing page in wave order wins, independent
				// of goroutine scheduling.
				return results[i].err
			}
			st.finish(oid, results[i])
		}
	}
	return nil
}

type renderResult struct {
	html string
	job  *renderJob
	// reads is the page's read set, as sorted distinct keys.
	reads []readKey
	err   error
}

// renderWave renders every page of the frontier on a bounded worker pool.
func renderWave(g *Generator, ids *readTable, wave []graph.OID, par int) []renderResult {
	results := make([]renderResult, len(wave))
	if par <= 1 || len(wave) < 2 {
		for i, oid := range wave {
			results[i] = renderOne(g, ids, oid)
		}
		return results
	}
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i, oid := range wave {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, oid graph.OID) {
			defer wg.Done()
			results[i] = renderOne(g, ids, oid)
			<-sem
		}(i, oid)
	}
	wg.Wait()
	return results
}

// readBufs recycles the buffers render jobs record their reads in: a
// wave keeps every page's result until its merge pass, so a result
// keeps only its read keys.
var readBufs = sync.Pool{New: func() any { return new([]read) }}

// renderOne renders a single page into placeholder form.
func renderOne(g *Generator, ids *readTable, oid graph.OID) renderResult {
	buf := readBufs.Get().(*[]read)
	// The page's own object is on the embed stack so that embedding
	// cycles back to the page degrade to links.
	job := &renderJob{g: g, embedStack: []graph.OID{oid}, reads: (*buf)[:0]}
	htmlText, err := job.render(oid)
	reads := ids.keys(job.reads)
	*buf, job.reads = job.reads, nil
	readBufs.Put(buf)
	return renderResult{html: htmlText, job: job, reads: reads, err: err}
}

// finish completes one rendered page: it assigns file names to the page's
// references in render order (the order the sequential generator would
// have used), substitutes them for the placeholders, and records the page.
func (st *genState) finish(oid graph.OID, r renderResult) {
	names := make([]string, len(r.job.refs))
	for i, ref := range r.job.refs {
		names[i] = st.schedule(ref)
	}
	out := st.out
	out.Pages[out.PageFiles[oid]] = substituteRefs(r.html, names)
	if old, ok := out.Refs[oid]; ok && !st.lostRef {
		st.lostRef = lostAny(old, r.job.refs)
	}
	out.Refs[oid] = append([]graph.OID(nil), r.job.refs...)
	out.setReads(oid, r.reads)
}

// lostAny reports whether some object of old is missing from cur.
func lostAny(old, cur []graph.OID) bool {
	if len(old) == 0 {
		return false
	}
	have := make(map[graph.OID]bool, len(cur))
	for _, oid := range cur {
		have[oid] = true
	}
	for _, oid := range old {
		if !have[oid] {
			return true
		}
	}
	return false
}

// fileFor assigns (or returns) the page file name of an object.
func (st *genState) fileFor(oid graph.OID, preferred string) string {
	if name, ok := st.out.PageFiles[oid]; ok {
		return name
	}
	name := preferred
	if name == "" {
		name = sanitizeFile(string(oid)) + ".html"
	}
	for n := 2; st.taken(name); n++ {
		name = fmt.Sprintf("%s-%d.html", strings.TrimSuffix(name, ".html"), n)
	}
	st.usedNames[name] = true
	st.out.PageFiles[oid] = name
	return name
}

// taken reports whether a page name is assigned: to a page this pass
// scheduled, or to one already in the output.
func (st *genState) taken(name string) bool {
	if st.usedNames[name] {
		return true
	}
	_, ok := st.out.Pages[name]
	return ok
}

// schedule ensures the object will be rendered as a page.
func (st *genState) schedule(oid graph.OID) string {
	name, known := st.out.PageFiles[oid]
	if !known {
		name = st.fileFor(oid, "")
	}
	if _, done := st.out.Pages[name]; !done && !st.pending[oid] {
		st.pending[oid] = true
		st.queue = append(st.queue, oid)
	}
	return name
}

// renderJob is the per-page worker state: it renders one object's template
// tree with placeholder tokens standing in for link targets, and records,
// in render order, which objects those placeholders refer to.
type renderJob struct {
	g          *Generator
	embedStack []graph.OID
	// refs lists the target of every RenderRef call in render order;
	// placeholder i resolves to refs[i]'s file name at merge time.
	refs []graph.OID
	// reads collects, while the page renders, every site-graph read it
	// makes, duplicates included.
	reads []read
}

// OutLabel is the template engine's view of the site: the job hands
// itself to template.Render, so every attribute the page reads, found
// or not, lands in its read set.
func (job *renderJob) OutLabel(oid graph.OID, label string) []graph.Value {
	job.reads = append(job.reads, read{oid: oid, label: label})
	return job.g.Site.OutLabel(oid, label)
}

const refMark = '\x00'

// refPlaceholder is the token substituted at merge time; NUL delimiters
// cannot appear in escaped HTML text.
func refPlaceholder(i int) string {
	return string(refMark) + strconv.Itoa(i) + string(refMark)
}

// substituteRefs replaces every placeholder token with its resolved file
// name.
func substituteRefs(s string, names []string) string {
	if !strings.ContainsRune(s, refMark) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for {
		start := strings.IndexByte(s, refMark)
		if start < 0 {
			b.WriteString(s)
			return b.String()
		}
		end := strings.IndexByte(s[start+1:], refMark)
		if end < 0 {
			b.WriteString(s)
			return b.String()
		}
		idx, err := strconv.Atoi(s[start+1 : start+1+end])
		b.WriteString(s[:start])
		if err == nil && idx >= 0 && idx < len(names) {
			b.WriteString(names[idx])
		}
		s = s[start+1+end+1:]
	}
}

// render renders one object through its selected template.
func (job *renderJob) render(oid graph.OID) (string, error) {
	t := job.selectTemplate(oid)
	if t == nil {
		return job.defaultRender(oid)
	}
	return template.Render(t, oid, job, job)
}

// selectTemplate applies the paper's three selection rules, then the
// default, recording what rules 2 and 3 read.
func (job *renderJob) selectTemplate(oid graph.OID) *template.Template {
	g := job.g
	if name, ok := g.PerObject[oid]; ok {
		if t := g.Templates.Get(name); t != nil {
			return t
		}
	}
	var bestPrefix, bestName string
	for prefix, name := range g.PerPrefix {
		if strings.HasPrefix(string(oid), prefix) && len(prefix) > len(bestPrefix) {
			bestPrefix, bestName = prefix, name
		}
	}
	if bestName != "" {
		if t := g.Templates.Get(bestName); t != nil {
			return t
		}
	}
	if vs := job.OutLabel(oid, g.TemplateAttr); len(vs) > 0 && vs[0].Kind() == graph.KindString {
		if t := g.Templates.Get(vs[0].Str()); t != nil {
			return t
		}
	}
	job.reads = append(job.reads, read{oid: oid, kind: collectionsRead})
	for _, coll := range g.Site.CollectionsOf(oid) {
		if name, ok := g.PerCollection[coll]; ok {
			if t := g.Templates.Get(name); t != nil {
				return t
			}
		}
	}
	if g.Default != "" {
		if t := g.Templates.Get(g.Default); t != nil {
			return t
		}
	}
	return nil
}

// defaultRender is the built-in attribute listing used when no template
// matches.
func (job *renderJob) defaultRender(oid graph.OID) (string, error) {
	var b strings.Builder
	title := html.EscapeString(string(oid))
	fmt.Fprintf(&b, "<html><head><title>%s</title></head><body>\n<h1>%s</h1>\n<dl>\n", title, title)
	job.reads = append(job.reads, read{oid: oid, kind: edgesRead})
	for _, e := range job.g.Site.Out(oid) {
		var rendered string
		var err error
		if e.To.IsNode() {
			rendered, err = job.RenderRef(e.To.OID(), string(e.To.OID()))
		} else {
			rendered = html.EscapeString(e.To.Text())
		}
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "<dt>%s</dt><dd>%s</dd>\n", html.EscapeString(e.Label), rendered)
	}
	b.WriteString("</dl>\n</body></html>\n")
	return b.String(), nil
}

// LookupTemplate resolves SINCLUDE names against the generator's set.
func (job *renderJob) LookupTemplate(name string) *template.Template {
	return job.g.Templates.Get(name)
}

// RenderRef links to the object's page, recording it for scheduling at
// merge time. The anchor text was read through OutLabel; the target's
// file name is stable for as long as its page exists.
func (job *renderJob) RenderRef(oid graph.OID, anchorText string) (string, error) {
	job.refs = append(job.refs, oid)
	return fmt.Sprintf(`<a href="%s">%s</a>`, refPlaceholder(len(job.refs)-1),
		html.EscapeString(anchorText)), nil
}

// RenderEmbed renders the object's template inline. Embedding cycles fall
// back to a reference so generation always terminates.
func (job *renderJob) RenderEmbed(oid graph.OID) (string, error) {
	for _, on := range job.embedStack {
		if on == oid {
			return job.RenderRef(oid, string(oid))
		}
	}
	job.embedStack = append(job.embedStack, oid)
	defer func() { job.embedStack = job.embedStack[:len(job.embedStack)-1] }()
	return job.render(oid)
}

// RenderFile resolves file atoms. Embedded text files are escaped;
// embedded HTML files pass through raw; images become img tags; anything
// else links to the file path.
func (job *renderJob) RenderFile(v graph.Value, embed bool) (string, error) {
	path := v.Str()
	if embed {
		switch v.FileType() {
		case graph.FileText, graph.FileHTML:
			data, err := job.g.ReadFile(path)
			if err != nil {
				return fmt.Sprintf("<!-- missing file %s -->", html.EscapeString(path)), nil
			}
			if v.FileType() == graph.FileHTML {
				return string(data), nil
			}
			return html.EscapeString(string(data)), nil
		}
	}
	esc := html.EscapeString(path)
	if v.FileType() == graph.FileImage {
		return fmt.Sprintf(`<img src="%s">`, esc), nil
	}
	return fmt.Sprintf(`<a href="%s">%s</a>`, esc, esc), nil
}

func sanitizeFile(s string) string {
	mapped := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
	const maxName = 100
	if len(mapped) > maxName {
		mapped = mapped[:maxName]
	}
	return mapped
}

// SortedPageNames returns the generated page names, sorted, for stable
// reporting.
func (o *Output) SortedPageNames() []string {
	names := make([]string, 0, len(o.Pages))
	for n := range o.Pages {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
