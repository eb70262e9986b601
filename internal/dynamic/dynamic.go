// Package dynamic implements dynamic ("click-time") computation of site
// graphs (§2.5, §7). The prototype's static approach materializes the
// whole site before anyone browses it; that is infeasible for sites whose
// data changes frequently or whose pages depend on user input. Site
// schemas make the alternative possible: they specify, for each node in
// the site graph, the queries that must be evaluated to compute the
// node's contents — its outgoing edges.
//
// Evaluator answers "what are this page's edges?" by running, for each
// site-schema edge leaving the page's Skolem function, the edge's
// governing conjunction with the page's Skolem arguments pre-bound.
// Computed pages are cached (the optimization the paper describes as
// reusing "information derived for already browsed pages"), and optional
// lookahead precomputes the pages a just-computed page links to.
//
// The package also holds the one reload loop: Reloader polls the source
// files, re-wraps the changed sources through the mediator, and hands
// each new data generation with its delta to a Swapper — an Evaluator, a
// serving fleet, or the incremental site that `strudel -watch` patches.
// Health reports whether the last reload succeeded.
package dynamic

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"strudel/internal/graph"
	"strudel/internal/mediator"
	"strudel/internal/obs"
	"strudel/internal/schema"
	"strudel/internal/struql"
)

// PageRef identifies a dynamic page: a Skolem function and its argument
// values.
type PageRef struct {
	Fn   string
	Args []graph.Value
}

// PageData is the computed content of one page: the node's outgoing
// edges in the virtual site graph. A cached page stores each target
// once, grouped by label: labels holds the distinct labels sorted,
// targets every target in (label, key) order, and ends[i] the end of
// labels[i]'s span in targets (the span starts at ends[i-1], or 0).
// The edge source is always the page itself, so it is not stored; nor
// are the linked pages, which are the node targets that resolve to a
// page ref (Evaluator.Links).
type PageData struct {
	OID graph.OID
	Ref PageRef

	labels  []string
	ends    []int
	targets []graph.Value
}

// outLabel returns the page's targets under one label, in key order.
// The slice is a view of the cached page, capped so an append cannot
// write into it; callers must not modify its elements.
func (pd *PageData) outLabel(label string) []graph.Value {
	i, ok := slices.BinarySearch(pd.labels, label)
	if !ok {
		return nil
	}
	lo := 0
	if i > 0 {
		lo = pd.ends[i-1]
	}
	hi := pd.ends[i]
	return pd.targets[lo:hi:hi]
}

// Out builds the page's out-edges, sorted by (label, target key).
func (pd *PageData) Out() []graph.Edge {
	out := make([]graph.Edge, 0, len(pd.targets))
	lo := 0
	for i, l := range pd.labels {
		for _, v := range pd.targets[lo:pd.ends[i]] {
			out = append(out, graph.Edge{From: pd.OID, Label: l, To: v})
		}
		lo = pd.ends[i]
	}
	return out
}

// Evaluator computes pages on demand from the site schema and the data
// graph. It is safe for concurrent use: the page cache is shared under a
// lock, concurrent requests for the same uncomputed page share one
// evaluation (per-page single-flight), and different pages evaluate in
// parallel. The data source can be swapped atomically at runtime
// (SwapData), which is how the hot-reload loop publishes a freshly
// re-wrapped graph without ever exposing a partially built one.
//
// Everything the evaluator derives from the data — pages and the page
// identities that name them — belongs to one generation and goes with
// it; apart from the settings below, its only mutable field is the
// current generation.
type Evaluator struct {
	Schema *schema.Schema
	// Lookahead precomputes linked pages after each page computation.
	// Set it before serving; it is read without synchronization.
	Lookahead bool
	// Obs, when non-nil, receives cache hit/miss, coalesce, computed
	// page and query counts: the evaluator's one work account. Set it
	// before serving (read without synchronization); nil disables
	// instrumentation.
	Obs *obs.ServeMetrics

	// edges maps each Skolem function to its out-edges in the schema,
	// resolved once here rather than per computed page.
	edges map[string][]pageEdge
	// deps maps each Skolem function to the attribute labels and
	// collection names its edge queries depend on; "*" means everything
	// (an arc variable ranges over the whole schema).
	deps map[string]map[string]bool

	state atomic.Pointer[evalState]
}

// evalState is one generation of the evaluator: a data source, the page
// cache computed against it, and the page identities its pages use. A
// request snapshots the state once and serves entirely from it, so no
// request ever observes a torn graph — SwapData publishes a complete
// replacement state, and requests that started earlier finish against
// the generation they began with.
type evalState struct {
	src struql.Source
	// gen is the data generation this state serves: it increases by one
	// per swap. A page rendered against this state is a pure function of
	// gen — that is what makes generation-scoped ETags sound, and what
	// lets every replica of a fleet share one state's cache.
	gen int64

	// frozen is src's snapshot and opts carries the generation's planner
	// statistics and, through them, its plans: resolved on first use,
	// then shared by every page computed against src. Evaluations are
	// handed src itself (see struql.Snapshot); frozen serves the reads
	// that are not evaluations.
	once   sync.Once
	frozen *graph.Frozen
	opts   *struql.Options

	// mu guards cache, flight and the page identities: env names each
	// page ref (Skolem naming, as static evaluation does) and refs holds
	// the ref of each of env's entries, which resolves a page oid back
	// to its ref.
	mu     sync.Mutex
	cache  map[graph.OID]*PageData
	flight map[graph.OID]*flightCall
	env    *struql.SkolemEnv
	refs   []PageRef
}

func (st *evalState) resolve() {
	st.once.Do(func() {
		// nil past the snapshot's id capacity, where every evaluation of
		// src fails with the typed error.
		st.frozen, _ = struql.Snapshot(st.src)
		st.opts = &struql.Options{Stats: struql.CollectStats(st.frozen)}
	})
}

// evalOpts returns the evaluation options of the generation.
func (st *evalState) evalOpts() *struql.Options {
	st.resolve()
	return st.opts
}

// data returns the generation's snapshot, nil past the id capacity:
// then no page computes, and SwapData carries none over.
func (st *evalState) data() *graph.Frozen {
	st.resolve()
	return st.frozen
}

// pageEdge is one schema out-edge of a Skolem function plus its NS
// target resolved once: when the target text is a constant, nsConst is
// its value; otherwise nsErr is what a row with no value for the text
// as a variable reports.
type pageEdge struct {
	schema.Edge
	nsConst graph.Value
	nsErr   error
}

// flightCall is one in-progress page computation shared by concurrent
// requesters of the same page.
type flightCall struct {
	done chan struct{}
	pd   *PageData
	err  error
}

func newEvalState(src struql.Source, env *struql.SkolemEnv) *evalState {
	return &evalState{
		src:    src,
		cache:  map[graph.OID]*PageData{},
		flight: map[graph.OID]*flightCall{},
		env:    env,
	}
}

// oidFor returns the page oid of a ref in this generation.
func (st *evalState) oidFor(ref PageRef) graph.OID {
	st.mu.Lock()
	defer st.mu.Unlock()
	oid := st.env.OID(ref.Fn, ref.Args)
	if st.env.Size() > len(st.refs) {
		st.refs = append(st.refs, ref)
	}
	return oid
}

// refFor resolves a page oid issued in this generation back to its ref.
func (st *evalState) refFor(oid graph.OID) (PageRef, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.refLocked(oid)
}

// refLocked is refFor with st.mu held.
func (st *evalState) refLocked(oid graph.OID) (PageRef, bool) {
	if i, ok := st.env.Entry(oid); ok {
		return st.refs[i], true
	}
	return PageRef{}, false
}

// NewEvaluator returns an evaluator over a site schema and data source.
func NewEvaluator(s *schema.Schema, data struql.Source) *Evaluator {
	ev := &Evaluator{
		Schema: s,
		edges:  map[string][]pageEdge{},
		deps:   map[string]map[string]bool{},
	}
	ev.state.Store(newEvalState(data, struql.NewSkolemEnv()))
	for _, e := range s.Edges {
		pe := pageEdge{Edge: e}
		if e.To == schema.NS {
			pe.nsConst, pe.nsErr = parseTermText(e.ToArgs[0])
		}
		ev.edges[e.From] = append(ev.edges[e.From], pe)
	}
	for _, fn := range s.Nodes {
		if fn == schema.NS {
			continue
		}
		set := map[string]bool{}
		for _, e := range ev.edges[fn] {
			condDeps(e.Where, set, map[string][]string{})
		}
		ev.deps[fn] = set
	}
	return ev
}

// snapshot returns the current state; callers that must be self-consistent
// across several reads (one HTTP request) capture it once.
func (ev *Evaluator) snapshot() *evalState { return ev.state.Load() }

// Generation returns the current data generation: 0 at construction,
// increasing with every swap. A page response tagged with a generation
// was computed entirely against that generation's data.
func (ev *Evaluator) Generation() int64 { return ev.snapshot().gen }

// SourceGen returns the data source and its generation from one atomic
// snapshot: a query evaluated against the returned source is a pure
// function of the returned generation. Calling Source and Generation
// separately can straddle a swap; cursor-resumable query evaluation
// needs the pair to be consistent.
func (ev *Evaluator) SourceGen() (struql.Source, int64) {
	st := ev.snapshot()
	return st.src, st.gen
}

// SwapData atomically replaces the data source. A cached page carries
// over when the delta cannot change it: its Skolem function's edge
// queries depend on no changed label or collection, nor (for arc
// variables) on edges of changed objects. Affected pages are dropped; a
// nil delta means "unknown change" and drops the whole cache. The next
// generation starts with only the identities its kept pages use — each
// page's own and those of the pages it links to, under the same oids —
// so a kept page still resolves and everything else the old generation
// named goes with it. Each identity is carried by its entry: the next
// generation's Skolem environment shares the old one's hash seed and
// copies the stored key. Requests already in flight finish against the
// previous generation — they serve a consistent, slightly stale page
// rather than a torn one.
func (ev *Evaluator) SwapData(src struql.Source, d *mediator.Delta) (kept, dropped int) {
	old := ev.snapshot()
	next := newEvalState(src, nil)
	next.gen = old.gen + 1
	identities := 0 // at most: the kept pages and their node targets
	old.mu.Lock()
	for oid, pd := range old.cache {
		if d == nil || next.data() == nil || AffectedBy(ev.deps[pd.Ref.Fn], d, next.data()) {
			dropped++
			continue
		}
		next.cache[oid] = pd
		kept++
		identities++
		for _, v := range pd.targets {
			if v.IsNode() {
				identities++
			}
		}
	}
	old.mu.Unlock()
	next.env = old.env.Successor(identities)
	next.refs = make([]PageRef, 0, identities)
	// The old generation keeps serving while the kept pages' identities
	// are carried: they are read under its lock a batch at a time, so no
	// request waits for the whole carry.
	const batch = 256
	carried := 0
	carry := func(oid graph.OID) {
		if carried%batch == 0 {
			if carried > 0 {
				old.mu.Unlock()
			}
			old.mu.Lock()
		}
		carried++
		if i, ok := old.env.Entry(oid); ok && next.env.Carry(old.env, i) {
			next.refs = append(next.refs, old.refs[i])
		}
	}
	for oid, pd := range next.cache {
		carry(oid)
		for _, v := range pd.targets {
			if v.IsNode() {
				carry(v.OID())
			}
		}
	}
	if carried > 0 {
		old.mu.Unlock()
	}
	ev.state.Store(next)
	return kept, dropped
}

// EntryPoints returns the unconditionally created pages (zero-argument
// Skolem creations with an empty governing conjunction) — the roots a
// browser can start from.
func (ev *Evaluator) EntryPoints() []PageRef {
	var out []PageRef
	seen := map[string]bool{}
	for _, c := range ev.Schema.Creations {
		if len(c.Where) == 0 && len(c.Args) == 0 && !seen[c.Fn] {
			seen[c.Fn] = true
			out = append(out, PageRef{Fn: c.Fn})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fn < out[j].Fn })
	return out
}

// OIDFor returns the page oid of a ref in the current generation,
// consistent with static evaluation's Skolem naming. The first ref
// registered for an oid is the one RefFor returns; later equal refs are
// not kept.
func (ev *Evaluator) OIDFor(ref PageRef) graph.OID { return ev.snapshot().oidFor(ref) }

// RefFor resolves a page oid issued in the current generation (or kept
// into it by SwapData) back to its ref.
func (ev *Evaluator) RefFor(oid graph.OID) (PageRef, bool) { return ev.snapshot().refFor(oid) }

// Page computes (or returns from cache) the contents of one page.
func (ev *Evaluator) Page(ref PageRef) (*PageData, error) {
	return ev.PageCtx(context.Background(), ref)
}

// PageCtx is Page under a request context: evaluation is cancelled at
// operator boundaries when the context ends, and a caller waiting on
// another request's in-flight computation of the same page stops waiting
// when its own context ends.
func (ev *Evaluator) PageCtx(ctx context.Context, ref PageRef) (*PageData, error) {
	st := ev.snapshot()
	return ev.pageIn(ctx, st, st.oidFor(ref), ref, ev.Lookahead)
}

// pageIn computes (or returns from cache) one page against a specific
// state generation, with per-page single-flight: the first requester of
// an uncomputed page becomes the leader and evaluates it; concurrent
// requesters wait for the leader's result. A leader cancelled mid-flight
// does not poison the page — its context error is not cached, and one of
// the waiters takes over as the new leader. oid is the page oid of ref.
func (ev *Evaluator) pageIn(ctx context.Context, st *evalState, oid graph.OID, ref PageRef, lookahead bool) (*PageData, error) {
	for {
		st.mu.Lock()
		if pd, ok := st.cache[oid]; ok {
			st.mu.Unlock()
			if ev.Obs != nil {
				ev.Obs.PageCacheHits.Inc()
			}
			return pd, nil
		}
		if c, ok := st.flight[oid]; ok {
			st.mu.Unlock()
			if ev.Obs != nil {
				ev.Obs.Coalesced.Inc()
			}
			select {
			case <-c.done:
				if c.err == nil {
					return c.pd, nil
				}
				if errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded) {
					continue // the leader was cancelled; try to take over
				}
				return nil, c.err
			case <-ctx.Done():
				return nil, fmt.Errorf("dynamic: page %s: %w", oid, ctx.Err())
			}
		}
		c := &flightCall{done: make(chan struct{})}
		st.flight[oid] = c
		st.mu.Unlock()
		if ev.Obs != nil {
			ev.Obs.PageCacheMisses.Inc()
		}

		pd, err := ev.compute(ctx, st, ref, oid)
		st.mu.Lock()
		delete(st.flight, oid)
		if err == nil {
			st.cache[oid] = pd
		}
		st.mu.Unlock()
		c.pd, c.err = pd, err
		close(c.done)
		if err != nil {
			return nil, err
		}
		if ev.Obs != nil {
			ev.Obs.PagesComputed.Inc()
		}
		if lookahead {
			// Precompute "lookahead" results for reachable pages (§2.5),
			// one level deep (lookahead=false below stops the recursion).
			for _, v := range pd.targets {
				if !v.IsNode() {
					continue
				}
				loid := v.OID()
				st.mu.Lock()
				l, isPage := st.refLocked(loid)
				_, cached := st.cache[loid]
				st.mu.Unlock()
				if !isPage || cached {
					continue // a data-graph object, or already computed
				}
				if _, err := ev.pageIn(ctx, st, loid, l, false); err != nil {
					return nil, err
				}
			}
		}
		return pd, nil
	}
}

// compute runs the incremental query of every schema edge leaving the
// page's Skolem function, with the page's arguments pre-bound.
func (ev *Evaluator) compute(ctx context.Context, st *evalState, ref PageRef, oid graph.OID) (*PageData, error) {
	var edges []labeledTarget
	for _, e := range ev.edges[ref.Fn] {
		if len(e.FromArgs) != len(ref.Args) {
			continue // a different creation shape of the same function
		}
		seed := &struql.Bindings{Vars: e.FromArgs, Rows: [][]graph.Value{ref.Args}}
		b, err := struql.EvalWhereCtx(ctx, e.Where, st.src, seed, st.evalOpts())
		if err != nil {
			return nil, fmt.Errorf("dynamic: page %s: %w", oid, err)
		}
		if ev.Obs != nil {
			ev.Obs.QueriesRun.Inc()
		}
		for ri := range b.Rows {
			label := e.Label.Lit
			if e.Label.IsVar {
				label = b.Lookup(ri, e.Label.Var).Text()
			}
			if e.To == schema.NS {
				// The recorded text is a variable name or a constant in
				// term syntax.
				v := b.Lookup(ri, e.ToArgs[0])
				if v.IsNull() {
					if e.nsErr != nil {
						return nil, fmt.Errorf("dynamic: page %s: %w", oid, e.nsErr)
					}
					v = e.nsConst
				}
				edges = append(edges, labeledTarget{label, v})
				continue
			}
			args := make([]graph.Value, len(e.ToArgs))
			for i, a := range e.ToArgs {
				args[i] = b.Lookup(ri, a)
				if args[i].IsNull() {
					return nil, fmt.Errorf("dynamic: page %s: target argument %s unbound", oid, a)
				}
			}
			toid := st.oidFor(PageRef{Fn: e.To, Args: args})
			edges = append(edges, labeledTarget{label, graph.NewNode(toid)})
		}
	}
	return newPageData(oid, ref, sortDedup(edges)), nil
}

// labeledTarget is one out-edge of the page being computed; its source
// is always that page.
type labeledTarget struct {
	label string
	to    graph.Value
}

// newPageData groups sorted, deduplicated edges by label into the cached
// layout, each slice allocated at its exact size.
func newPageData(oid graph.OID, ref PageRef, edges []labeledTarget) *PageData {
	n := 0
	for i, e := range edges {
		if i == 0 || e.label != edges[i-1].label {
			n++
		}
	}
	pd := &PageData{
		OID:     oid,
		Ref:     ref,
		labels:  make([]string, 0, n),
		ends:    make([]int, 0, n),
		targets: make([]graph.Value, len(edges)),
	}
	for i, e := range edges {
		if i == 0 || e.label != edges[i-1].label {
			if i > 0 {
				pd.ends = append(pd.ends, i)
			}
			pd.labels = append(pd.labels, e.label)
		}
		pd.targets[i] = e.to
	}
	if len(edges) > 0 {
		pd.ends = append(pd.ends, len(edges))
	}
	return pd
}

// parseTermText resolves NS-target text as a constant term.
func parseTermText(s string) (graph.Value, error) {
	q, err := struql.Parse(`where C(x), x -> "l" -> ` + s + ` create N(x)`)
	if err != nil {
		return graph.Null, fmt.Errorf("cannot resolve NS target %q", s)
	}
	pc := q.Blocks[0].Where[1].(*struql.PathCond)
	if pc.To.IsVar() {
		// An unbound variable denotes no value for this row.
		return graph.Null, fmt.Errorf("NS target variable %q unbound", s)
	}
	return pc.To.Const, nil
}

// sortDedup orders one page's edges by (label, target key) and drops
// repeats. KeyCompare orders targets as their Key() strings would
// without building them, and the sort brings equal edges together, so
// one pass over neighbours dedups.
func sortDedup(edges []labeledTarget) []labeledTarget {
	slices.SortFunc(edges, func(a, b labeledTarget) int {
		if c := strings.Compare(a.label, b.label); c != 0 {
			return c
		}
		return graph.KeyCompare(a.to, b.to)
	})
	out := edges[:0]
	for i, e := range edges {
		if i == 0 || e != out[len(out)-1] {
			out = append(out, e)
		}
	}
	return out
}

// CacheSize returns the number of cached pages.
func (ev *Evaluator) CacheSize() int {
	st := ev.snapshot()
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.cache)
}

// Links returns the pages pd links to: its node targets that resolve to
// a page ref in the current generation, each once, in the page's
// (label, key) order.
func (ev *Evaluator) Links(pd *PageData) []PageRef { return ev.snapshot().links(pd) }

func (st *evalState) links(pd *PageData) []PageRef {
	var out []PageRef
	seen := map[graph.OID]bool{}
	for _, v := range pd.targets {
		if !v.IsNode() || seen[v.OID()] {
			continue
		}
		seen[v.OID()] = true
		if ref, ok := st.refFor(v.OID()); ok {
			out = append(out, ref)
		}
	}
	return out
}

// MaterializeAll walks the whole reachable page space of the current
// generation from the entry points and returns the site graph it
// induces — useful to verify that dynamic evaluation agrees with static
// evaluation.
func (ev *Evaluator) MaterializeAll() (*graph.Graph, error) {
	st := ev.snapshot()
	g := graph.New()
	var queue []PageRef
	queue = append(queue, ev.EntryPoints()...)
	seen := map[graph.OID]bool{}
	for len(queue) > 0 {
		ref := queue[0]
		queue = queue[1:]
		oid := st.oidFor(ref)
		if seen[oid] {
			continue
		}
		seen[oid] = true
		pd, err := ev.pageIn(context.Background(), st, oid, ref, ev.Lookahead)
		if err != nil {
			return nil, err
		}
		g.AddNode(oid)
		for _, e := range pd.Out() {
			g.AddEdge(e.From, e.Label, e.To)
		}
		queue = append(queue, st.links(pd)...)
	}
	return g, nil
}
