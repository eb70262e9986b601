package ivm

import (
	"sort"
	"strconv"

	"strudel/internal/core"
	"strudel/internal/dynamic"
	"strudel/internal/graph"
	"strudel/internal/htmlgen"
	"strudel/internal/mediator"
	"strudel/internal/obs"
	"strudel/internal/struql"
)

// DefaultMaxDelta is the delta size past which propagation bails out:
// beyond a few hundred row-level events, a full rebuild is usually
// cheaper than seeding the evaluator once per event.
const DefaultMaxDelta = 256

// Engine maintains one built version incrementally at row granularity.
// Where a block's operators admit sound deltas, each of its construction
// sites keeps its materialized where-relation, and the site graph counts
// what every row's construction asserts, so a data delta becomes a
// handful of seeded evaluations and the construction of just the rows
// it inserted or removed:
//
//   - tier A (row level): insertions seed the evaluator with each added
//     tuple per matching condition; deletions ground-re-check only the
//     rows a removed tuple can falsify (delete-and-rederive); negation
//     re-checks rows on inner additions and re-evaluates the site on
//     inner removals.
//   - tier B (block level): aggregation and multi-step path expressions
//     re-evaluate the whole block, still only when its dependency keys
//     intersect the delta, and swap its partition of the site graph.
//
// Any error mid-apply surfaces as a typed *Bailout; the engine's state
// must then be considered corrupt and the engine discarded — the Site
// wrapper rebuilds a fresh one from scratch (degrade-to-full).
type Engine struct {
	version *core.Version
	query   *struql.Query
	opts    *core.Options
	env     *struql.SkolemEnv
	blocks  []*blockState
	site    *graph.Graph

	// Refcounts over construction assertions: how many tier A row
	// constructions and tier B partitions assert each item. An edge or
	// membership also counts toward the nodes it implies, so a node
	// outlives everything that mentions it.
	nodeRefs   map[graph.OID]int
	edgeRefs   map[graph.Edge]int
	memberRefs map[mediator.Membership]int

	gen *htmlgen.Generator
	out *htmlgen.Output

	// MaxDelta bounds the deltas propagated row by row; larger ones bail
	// out with ReasonDeltaTooLarge. Set before the first Apply.
	MaxDelta int
	// Obs receives row-level instrumentation; nil disables it.
	Obs *obs.IVMMetrics

	// evalHook, when non-nil, runs before each apply's evaluations and
	// fails the apply with its error — the test seam for ReasonEvalError.
	evalHook func() error
}

// blockState is one top-level block's maintained state: the
// construction sites of a tier A block, or the partition of a tier B
// block (sites nil).
type blockState struct {
	blk   *struql.Block
	deps  map[string]bool
	part  *graph.Graph
	sites []*siteState
}

// siteState is one construction site of a tier A block: a (possibly
// nested) block together with the conjunction of every enclosing where
// clause, and the materialized relation that conjunction denotes.
type siteState struct {
	construct *struql.Block  // create/link/collect run per relation row
	conds     []struql.Cond  // flattened: ancestor wheres ++ own where
	vars      []string       // canonical column order
	cols      map[string]int // variable → column
	rows      map[string][]graph.Value
	// negDeps holds, per NotCond in conds, the dependency keys of the
	// negated conjunction (conservatively computed).
	negDeps []map[string]bool
	// allConstPath notes a PathCond with two constant endpoints: its
	// failure leaves no value trace in any row, so removals must
	// ground-re-check every row.
	allConstPath bool
}

// NewEngine builds the version once, materializing the per-block (and,
// for tier A blocks, per-site) state the incremental path maintains.
// Multi-query versions raise *Bailout(ReasonComposedQueries).
func NewEngine(v *core.Version, data struql.Source, opts *core.Options) (*Engine, error) {
	if len(v.Queries) != 1 {
		return nil, bail(ReasonComposedQueries, "version %s composes %d queries", v.Name, len(v.Queries))
	}
	q, err := struql.Parse(v.Queries[0])
	if err != nil {
		return nil, err
	}
	e := &Engine{
		version:    v,
		query:      q,
		opts:       opts,
		env:        struql.NewSkolemEnv(),
		site:       graph.New(),
		nodeRefs:   map[graph.OID]int{},
		edgeRefs:   map[graph.Edge]int{},
		memberRefs: map[mediator.Membership]int{},
		MaxDelta:   DefaultMaxDelta,
	}
	// One set of statistics, and so one plan cache, serves every
	// evaluation of the build.
	eo := e.evalOpts()
	eo.Stats = struql.CollectStats(data)
	in := &splice{e: e, sign: 1}
	for _, blk := range q.Blocks {
		bs := &blockState{blk: blk, deps: dynamic.BlockDeps(blk)}
		if blockTierA(blk) {
			bs.sites = flattenSites(blk, nil)
			for _, st := range bs.sites {
				keys, err := e.evalSite(st, data, eo)
				if err != nil {
					return nil, err
				}
				if err := e.constructRows(st, in, sortedRows(st.rows, keys)); err != nil {
					return nil, err
				}
			}
		} else {
			if bs.part, err = e.evalBlock(blk, data, eo); err != nil {
				return nil, err
			}
			in.graph(bs.part)
		}
		e.blocks = append(e.blocks, bs)
	}

	var roots []graph.OID
	if e.gen, roots, err = core.NewGenerator(v, e.site, opts); err != nil {
		return nil, err
	}
	e.out, err = e.gen.Generate(roots)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Site returns the live maintained site graph.
func (e *Engine) Site() *graph.Graph { return e.site }

// Output returns the live generated site.
func (e *Engine) Output() *htmlgen.Output { return e.out }

// Apply propagates one data delta: re-derive the affected relations,
// construct only the rows they gained or lost, splice what crossed a
// refcount of zero into the site graph, and regenerate the pages that
// read it. data must already reflect the delta. It returns the file
// names of the pages it regenerated. On a *Bailout (or any error) the
// engine is corrupt and must be discarded.
func (e *Engine) Apply(data struql.Source, delta *mediator.Delta) ([]string, error) {
	if delta == nil {
		return nil, bail(ReasonDeltaTooLarge, "nil delta: change of unknown extent")
	}
	if delta.Empty() {
		return nil, nil
	}
	if max := e.maxDelta(); delta.Size() > max {
		return nil, bail(ReasonDeltaTooLarge, "%d events > bound %d", delta.Size(), max)
	}
	if e.evalHook != nil {
		if err := e.evalHook(); err != nil {
			return nil, bail(ReasonEvalError, "%v", err)
		}
	}
	// As in NewEngine, one set of statistics serves the whole apply: the
	// data does not change under it.
	opts := e.evalOpts()
	opts.Stats = struql.CollectStats(data)
	var ch htmlgen.Changes
	in := &splice{e: e, sign: 1, ch: &ch}
	out := &splice{e: e, sign: -1, ch: &ch}
	// Everything comes in before anything goes out, so an item asserted
	// both by a lost row and by a gained one keeps a positive count and
	// never churns through the site graph. Gained rows are constructed
	// in block, site and row-key order, the order NewEngine constructs
	// in, so fresh Skolem terms are issued deterministically.
	var lost []func() error
	for _, bs := range e.blocks {
		if !dynamic.AffectedBy(bs.deps, delta, data) {
			continue
		}
		if bs.sites == nil {
			if e.Obs != nil {
				e.Obs.BlocksReevaluated.Inc()
			}
			part, err := e.evalBlock(bs.blk, data, opts)
			if err != nil {
				return nil, err
			}
			in.graph(part)
			old := bs.part
			bs.part = part
			lost = append(lost, func() error { out.graph(old); return out.err })
			continue
		}
		for _, st := range bs.sites {
			gained, dropped, err := e.rederive(st, data, delta, opts)
			if err != nil {
				return nil, err
			}
			if err := e.constructRows(st, in, gained); err != nil {
				return nil, err
			}
			if len(dropped) > 0 {
				lost = append(lost, func() error { return e.constructRows(st, out, dropped) })
			}
		}
	}
	for _, fn := range lost {
		if err := fn(); err != nil {
			return nil, err
		}
	}
	if ch.Empty() {
		return nil, nil
	}
	pages, err := e.gen.Regenerate(e.out, ch)
	if err != nil {
		return nil, bail(ReasonEvalError, "regenerate: %v", err)
	}
	return pages, nil
}

func (e *Engine) maxDelta() int {
	if e.MaxDelta > 0 {
		return e.MaxDelta
	}
	return DefaultMaxDelta
}

func (e *Engine) evalOpts() *struql.Options { return e.opts.EvalOptions() }

// evalBlock evaluates one block wholesale (tier B) under the shared
// Skolem environment.
func (e *Engine) evalBlock(blk *struql.Block, data struql.Source, opts *struql.Options) (*graph.Graph, error) {
	res, err := struql.EvalWithEnv(&struql.Query{Blocks: []*struql.Block{blk}}, data, e.env, opts)
	if err != nil {
		return nil, bail(ReasonEvalError, "block re-eval: %v", err)
	}
	return res.Graph, nil
}

// evalSite materializes a site's relation from scratch and returns the
// keys of its rows.
func (e *Engine) evalSite(st *siteState, data struql.Source, opts *struql.Options) ([]string, error) {
	st.rows = map[string][]graph.Value{}
	if len(st.conds) == 0 {
		// The unit relation: constructions with no where clause run once.
		st.rows[""] = []graph.Value{}
		return []string{""}, nil
	}
	b, err := struql.EvalWhere(st.conds, data, nil, opts)
	if err != nil {
		return nil, bail(ReasonEvalError, "site eval: %v", err)
	}
	return e.insertRows(st, b, nil)
}

// insertRows projects an evaluated relation onto the site's canonical
// columns, inserts each fresh row, and appends the fresh rows' keys to
// keys.
func (e *Engine) insertRows(st *siteState, b *struql.Bindings, keys []string) ([]string, error) {
	if len(b.Rows) == 0 {
		return keys, nil
	}
	idx := make([]int, len(st.vars))
	for i, v := range st.vars {
		if idx[i] = b.Index(v); idx[i] < 0 {
			return keys, bail(ReasonEvalError, "relation lost column %s", v)
		}
	}
	for _, r := range b.Rows {
		row := make([]graph.Value, len(idx))
		for i, j := range idx {
			row[i] = r[j]
		}
		k := rowKey(row)
		if _, dup := st.rows[k]; !dup {
			st.rows[k] = row
			keys = append(keys, k)
			if e.Obs != nil {
				e.Obs.RowsInserted.Inc()
			}
		}
	}
	return keys, nil
}

// rederive pushes a delta through one construction site, updating its
// materialized relation in place. It returns the rows the relation
// gained and lost, each in row-key order.
func (e *Engine) rederive(st *siteState, data struql.Source, delta *mediator.Delta, opts *struql.Options) (gained, lost [][]graph.Value, err error) {
	if len(st.conds) == 0 {
		return nil, nil, nil // the unit relation never changes
	}
	adds := &mediator.Delta{AddedEdges: delta.AddedEdges, AddedMembers: delta.AddedMembers}
	rems := &mediator.Delta{RemovedEdges: delta.RemovedEdges, RemovedMembers: delta.RemovedMembers}
	recheckAll := false
	reeval := false
	for _, nd := range st.negDeps {
		// Removals inside a negation can give birth to rows the positive
		// conditions alone cannot derive: re-evaluate.
		if dynamic.AffectedBy(nd, rems, data) {
			reeval = true
			break
		}
		// Additions inside a negation can only kill rows: every existing
		// row must be ground-re-checked.
		if dynamic.AffectedBy(nd, adds, data) {
			recheckAll = true
		}
	}
	// An added edge satisfying an all-constant path condition can give
	// birth to arbitrary rows — the tuple pins no variable, so there is
	// nothing to seed with. Re-evaluate the site.
	if st.allConstPath && len(delta.AddedEdges) > 0 {
		reeval = true
	}
	if reeval {
		if e.Obs != nil {
			e.Obs.SitesReevaluated.Inc()
		}
		old := st.rows
		keys, err := e.evalSite(st, data, opts)
		if err != nil {
			return nil, nil, err
		}
		var fresh, gone []string
		for _, k := range keys {
			if _, ok := old[k]; !ok {
				fresh = append(fresh, k)
			}
		}
		for k := range old {
			if _, ok := st.rows[k]; !ok {
				gone = append(gone, k)
			}
		}
		return sortedRows(st.rows, fresh), sortedRows(old, gone), nil
	}
	// Insertions: seed the evaluator with each added tuple per positive
	// condition it can satisfy.
	var fresh []string
	for _, seed := range e.seedsFor(st, delta) {
		b, err := struql.EvalWhere(st.conds, data, seed, opts)
		if err != nil {
			return nil, nil, bail(ReasonEvalError, "seeded eval: %v", err)
		}
		if fresh, err = e.insertRows(st, b, fresh); err != nil {
			return nil, nil, err
		}
	}
	// Deletions (delete-and-rederive): ground-re-check the rows a removed
	// tuple can falsify; a row whose seeded evaluation comes back empty
	// has lost its last derivation.
	for _, k := range e.removalCandidates(st, delta, recheckAll) {
		row := st.rows[k]
		if e.Obs != nil {
			e.Obs.RowsRechecked.Inc()
		}
		seed := &struql.Bindings{Vars: st.vars, Rows: [][]graph.Value{row}}
		b, err := struql.EvalWhere(st.conds, data, seed, opts)
		if err != nil {
			return nil, nil, bail(ReasonEvalError, "ground re-check: %v", err)
		}
		if len(b.Rows) == 0 {
			delete(st.rows, k)
			lost = append(lost, row)
			if e.Obs != nil {
				e.Obs.RowsRemoved.Inc()
			}
		}
	}
	return sortedRows(st.rows, fresh), lost, nil
}

// seedsFor builds one seed relation per (added tuple, matching positive
// condition) pair. A seed pins the condition's variables to the tuple's
// values; the evaluator derives every row the addition gives birth to.
func (e *Engine) seedsFor(st *siteState, delta *mediator.Delta) []*struql.Bindings {
	var seeds []*struql.Bindings
	add := func(vars []string, vals []graph.Value) {
		if len(vars) == 0 {
			return // an all-constant match adds no binding information
		}
		seeds = append(seeds, &struql.Bindings{Vars: vars, Rows: [][]graph.Value{vals}})
	}
	for _, edge := range delta.AddedEdges {
		from := graph.NewNode(edge.From)
		label := graph.NewString(edge.Label)
		for _, c := range st.conds {
			switch c := c.(type) {
			case *struql.EdgeCond:
				var vars []string
				var vals []graph.Value
				if c.From.IsVar() {
					vars, vals = append(vars, c.From.Var), append(vals, from)
				} else if c.From.Const.Key() != from.Key() {
					continue
				}
				vars, vals = append(vars, c.LabelVar), append(vals, label)
				if c.To.IsVar() {
					vars, vals = append(vars, c.To.Var), append(vals, edge.To)
				} else if c.To.Const.Key() != edge.To.Key() {
					continue
				}
				add(vars, vals)
			case *struql.PathCond:
				if !singleStepMatches(c.Path, edge.Label) {
					continue
				}
				var vars []string
				var vals []graph.Value
				if c.From.IsVar() {
					vars, vals = append(vars, c.From.Var), append(vals, from)
				} else if c.From.Const.Key() != from.Key() {
					continue
				}
				if c.To.IsVar() {
					vars, vals = append(vars, c.To.Var), append(vals, edge.To)
				} else if c.To.Const.Key() != edge.To.Key() {
					continue
				}
				add(vars, vals)
			}
		}
	}
	for _, m := range delta.AddedMembers {
		for _, c := range st.conds {
			if mc, ok := c.(*struql.MemberCond); ok && mc.Coll == m.Coll {
				add([]string{mc.Var}, []graph.Value{graph.NewNode(m.OID)})
			}
		}
	}
	return seeds
}

// removalCandidates returns, in sorted order, the keys of the rows that
// may have lost a derivation: those for which some positive condition,
// under the row's bindings, matches a removed tuple — or, when
// recheckAll or an all-constant path condition forces it, every row.
// The candidate set is a superset of the rows that actually die; the
// ground re-check decides.
func (e *Engine) removalCandidates(st *siteState, delta *mediator.Delta, recheckAll bool) []string {
	if len(delta.RemovedEdges) == 0 && len(delta.RemovedMembers) == 0 && !recheckAll {
		return nil
	}
	all := recheckAll || (st.allConstPath && len(delta.RemovedEdges) > 0)
	var rm *removed
	if !all {
		rm = removedOf(delta)
	}
	var keys []string
	for k, row := range st.rows {
		if all || rm.falsifies(st, row) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// removed indexes a delta's removed tuples.
type removed struct {
	edges   map[graph.Edge]bool
	members map[mediator.Membership]bool
	delta   *mediator.Delta
}

func removedOf(delta *mediator.Delta) *removed {
	rm := &removed{
		edges:   make(map[graph.Edge]bool, len(delta.RemovedEdges)),
		members: make(map[mediator.Membership]bool, len(delta.RemovedMembers)),
		delta:   delta,
	}
	for _, edge := range delta.RemovedEdges {
		rm.edges[edge] = true
	}
	for _, m := range delta.RemovedMembers {
		rm.members[m] = true
	}
	return rm
}

// falsifies reports whether some positive membership, edge or path
// condition of the site, under row, matches a removed tuple.
func (rm *removed) falsifies(st *siteState, row []graph.Value) bool {
	val := func(t struql.Term) graph.Value {
		if t.IsVar() {
			return row[st.cols[t.Var]]
		}
		return t.Const
	}
	for _, c := range st.conds {
		switch c := c.(type) {
		case *struql.MemberCond:
			x := row[st.cols[c.Var]]
			if x.IsNode() && rm.members[mediator.Membership{Coll: c.Coll, OID: x.OID()}] {
				return true
			}
		case *struql.EdgeCond:
			from := val(c.From)
			if from.IsNode() && rm.edges[graph.Edge{From: from.OID(), Label: row[st.cols[c.LabelVar]].Text(), To: val(c.To)}] {
				return true
			}
		case *struql.PathCond:
			if from := val(c.From); from.IsNode() && rm.step(c.Path, from.OID(), val(c.To)) {
				return true
			}
		}
	}
	return false
}

// step reports whether a removed edge from → to matches a single-step
// path. A wildcard or regex step binds no label, so any removed edge
// between the two ends that the step matches may have been the row's.
func (rm *removed) step(p *struql.PathExpr, from graph.OID, to graph.Value) bool {
	if p.Op == struql.PLabel {
		return rm.edges[graph.Edge{From: from, Label: p.Label, To: to}]
	}
	for _, edge := range rm.delta.RemovedEdges {
		if edge.From == from && edge.To == to && singleStepMatches(p, edge.Label) {
			return true
		}
	}
	return false
}

// constructRows runs a site's construction over rows, handing every
// assertion to sp.
func (e *Engine) constructRows(st *siteState, sp *splice, rows [][]graph.Value) error {
	if len(rows) == 0 {
		return nil
	}
	err := struql.ConstructTo(st.construct, &struql.Bindings{Vars: st.vars, Rows: rows}, e.env, sp)
	if err != nil {
		return bail(ReasonEvalError, "construct: %v", err)
	}
	return sp.err
}

// sortedRows returns the rows named by keys in key order, the order
// construction issues Skolem terms in. It sorts keys in place.
func sortedRows(rows map[string][]graph.Value, keys []string) [][]graph.Value {
	sort.Strings(keys)
	out := make([][]graph.Value, len(keys))
	for i, k := range keys {
		out[i] = rows[k]
	}
	return out
}

// splice counts construction assertions into (sign +1) or out of (sign
// -1) the live site graph. Only an item whose count crosses zero
// changes the graph, and is recorded in ch for page dirtying. A count
// going negative means the maintained state diverged from the data and
// can only be repaired by a full rebuild: the splice stops and keeps
// the underflow in err.
type splice struct {
	e    *Engine
	sign int
	ch   *htmlgen.Changes // nil while the engine is being built
	err  error
}

func (s *splice) underflow(what string) {
	if s.err == nil {
		s.err = bail(ReasonSupportUnderflow, "%s refcount went negative", what)
	}
}

// count moves one item's refcount by the splice's sign and reports
// whether the item enters (0→1) or leaves (1→0) the site graph.
func count[K comparable](s *splice, refs map[K]int, k K, what string) (enter, leave bool) {
	n := refs[k] + s.sign
	switch {
	case n < 0:
		s.underflow(what)
		return false, false
	case n == 0:
		delete(refs, k)
		return false, true
	}
	refs[k] = n
	return n == 1 && s.sign > 0, false
}

// AddNode counts one node assertion.
func (s *splice) AddNode(oid graph.OID) graph.Value {
	enter, leave := count(s, s.e.nodeRefs, oid, "node")
	if enter {
		s.e.site.AddNode(oid)
	} else if leave {
		s.e.site.RemoveNode(oid)
	}
	if (enter || leave) && s.ch != nil {
		s.ch.Nodes = append(s.ch.Nodes, oid)
	}
	return graph.NewNode(oid)
}

// AddEdge counts one edge assertion, and its endpoints as nodes: in
// before the edge, out after it.
func (s *splice) AddEdge(from graph.OID, label string, to graph.Value) bool {
	if s.sign > 0 {
		s.endpoints(from, to)
	}
	enter, leave := count(s, s.e.edgeRefs, graph.Edge{From: from, Label: label, To: to}, "edge")
	if enter {
		s.e.site.AddEdge(from, label, to)
	} else if leave {
		s.e.site.RemoveEdge(from, label, to)
	}
	if (enter || leave) && s.ch != nil {
		s.ch.Edges = append(s.ch.Edges, htmlgen.Attr{OID: from, Label: label})
	}
	if s.sign < 0 {
		s.endpoints(from, to)
	}
	return enter
}

func (s *splice) endpoints(from graph.OID, to graph.Value) {
	s.AddNode(from)
	if to.IsNode() {
		s.AddNode(to.OID())
	}
}

// AddToCollection counts one membership assertion, and its member as a
// node: in before the membership, out after it.
func (s *splice) AddToCollection(coll string, oid graph.OID) {
	if s.sign > 0 {
		s.AddNode(oid)
	}
	enter, leave := count(s, s.e.memberRefs, mediator.Membership{Coll: coll, OID: oid}, "membership")
	if enter {
		s.e.site.AddToCollection(coll, oid)
	} else if leave {
		s.e.site.RemoveFromCollection(coll, oid)
	}
	if (enter || leave) && s.ch != nil {
		s.ch.Members = append(s.ch.Members, oid)
	}
	if s.sign < 0 {
		s.AddNode(oid)
	}
}

// graph counts a whole tier B partition: its nodes, edges and members.
func (s *splice) graph(part *graph.Graph) {
	for _, oid := range part.Nodes() {
		s.AddNode(oid)
	}
	part.Edges(func(edge graph.Edge) bool {
		s.AddEdge(edge.From, edge.Label, edge.To)
		return s.err == nil
	})
	for _, coll := range part.CollectionNames() {
		if s.sign > 0 {
			s.e.site.DeclareCollection(coll)
		}
		for _, oid := range part.Collection(coll) {
			s.AddToCollection(coll, oid)
		}
	}
}

// blockTierA reports whether a block (with its nested blocks) admits
// row-level delta propagation: no aggregation, every path condition a
// single step, and negation at most one level deep.
func blockTierA(blk *struql.Block) bool {
	if len(blk.Aggregate) > 0 || len(blk.AggBy) > 0 {
		return false
	}
	for _, c := range blk.Where {
		if !condTierA(c, true) {
			return false
		}
	}
	for _, n := range blk.Nested {
		if !blockTierA(n) {
			return false
		}
	}
	return true
}

func condTierA(c struql.Cond, allowNot bool) bool {
	switch c := c.(type) {
	case *struql.MemberCond, *struql.PredCond, *struql.CmpCond, *struql.EdgeCond:
		return true
	case *struql.PathCond:
		return singleStep(c.Path)
	case *struql.NotCond:
		if !allowNot {
			return false
		}
		for _, k := range c.Conds {
			if !condTierA(k, false) {
				return false
			}
		}
		return true
	}
	return false
}

// singleStep reports whether a path expression matches exactly one edge
// with a per-label predicate — the shape whose delta seeds are obvious.
// Anything with closure or sequencing (x -> "a"."b"* -> y) goes tier B.
func singleStep(p *struql.PathExpr) bool {
	switch p.Op {
	case struql.PLabel, struql.PAny, struql.PRegex:
		return true
	}
	return false
}

func singleStepMatches(p *struql.PathExpr, label string) bool {
	switch p.Op {
	case struql.PLabel:
		return p.Label == label
	case struql.PAny:
		return true
	case struql.PRegex:
		return p.Re == nil || p.Re.MatchString(label)
	}
	return false
}

// flattenSites linearizes a block tree into construction sites: one per
// block, each carrying the conjunction of every enclosing where clause,
// in definition (DFS) order — the order the full evaluator constructs
// in, which keeps Skolem display-name issuance aligned with it.
func flattenSites(blk *struql.Block, prefix []struql.Cond) []*siteState {
	conds := make([]struql.Cond, 0, len(prefix)+len(blk.Where))
	conds = append(conds, prefix...)
	conds = append(conds, blk.Where...)
	st := &siteState{construct: blk, conds: conds, vars: canonicalVars(conds), cols: map[string]int{}}
	for i, v := range st.vars {
		st.cols[v] = i
	}
	for _, c := range conds {
		if nc, ok := c.(*struql.NotCond); ok {
			st.negDeps = append(st.negDeps, dynamic.BlockDeps(&struql.Block{Where: nc.Conds}))
		}
		if pc, ok := c.(*struql.PathCond); ok && !pc.From.IsVar() && !pc.To.IsVar() {
			st.allConstPath = true
		}
	}
	var sites []*siteState
	if len(blk.Create) > 0 || len(blk.Link) > 0 || len(blk.Collect) > 0 {
		// A block with no construction clauses contributes nothing to
		// the site graph; its where clause still scopes nested blocks
		// (via the conds prefix), so only the site itself is dropped.
		sites = append(sites, st)
	}
	for _, n := range blk.Nested {
		sites = append(sites, flattenSites(n, conds)...)
	}
	return sites
}

// canonicalVars fixes a site's column order: every positively bindable
// variable, in textual condition order, first occurrence wins. The
// evaluator's own column order varies with the plan; projection onto
// this order makes row keys stable across seeded and full evaluations.
func canonicalVars(conds []struql.Cond) []string {
	var vars []string
	seen := map[string]bool{}
	add := func(v string) {
		if v != "" && !seen[v] {
			seen[v] = true
			vars = append(vars, v)
		}
	}
	for _, c := range conds {
		switch c := c.(type) {
		case *struql.MemberCond:
			add(c.Var)
		case *struql.EdgeCond:
			if c.From.IsVar() {
				add(c.From.Var)
			}
			add(c.LabelVar)
			if c.To.IsVar() {
				add(c.To.Var)
			}
		case *struql.PathCond:
			if c.From.IsVar() {
				add(c.From.Var)
			}
			if c.To.IsVar() {
				add(c.To.Var)
			}
		}
	}
	return vars
}

// rowKey serializes a row into a map key: length-prefixed value keys,
// unambiguous for any content.
func rowKey(row []graph.Value) string {
	var b []byte
	for _, v := range row {
		k := v.Key()
		b = strconv.AppendInt(b, int64(len(k)), 10)
		b = append(b, ':')
		b = append(b, k...)
	}
	return string(b)
}
