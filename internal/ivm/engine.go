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
	"strudel/internal/template"
)

// DefaultMaxDelta is the delta size past which propagation bails out:
// beyond a few hundred row-level events, a full rebuild is usually
// cheaper than seeding the evaluator once per event.
const DefaultMaxDelta = 256

// Engine maintains one built version incrementally at row granularity.
// Each top-level query block is kept as a partition of the site graph
// (spliced in by refcounted merge), and — where the block's operators
// admit sound deltas — the block's construction sites each keep their
// materialized where-relation, so a data delta becomes a handful of
// seeded evaluations instead of a block re-run:
//
//   - tier A (row level): insertions seed the evaluator with each added
//     tuple per matching condition; deletions ground-re-check only the
//     rows that mention a removed value (delete-and-rederive); negation
//     re-checks rows on inner additions and re-evaluates the site on
//     inner removals.
//   - tier B (block level): aggregation and multi-step path expressions
//     re-evaluate the whole block, still only when its dependency keys
//     intersect the delta.
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

	// Refcounts over partition contributions: how many partitions
	// assert each item.
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

// blockState is one top-level block's maintained partition. sites is
// nil for tier B blocks.
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
	construct *struql.Block // create/link/collect run per relation row
	conds     []struql.Cond // flattened: ancestor wheres ++ own where
	vars      []string      // canonical column order
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
	for _, blk := range q.Blocks {
		bs := &blockState{blk: blk, deps: dynamic.BlockDeps(blk)}
		if blockTierA(blk) {
			bs.sites = flattenSites(blk, nil)
			for _, st := range bs.sites {
				if err := e.evalSite(st, data); err != nil {
					return nil, err
				}
			}
			bs.part, err = e.constructBlock(bs)
		} else {
			bs.part, err = e.evalBlock(blk, data)
		}
		if err != nil {
			return nil, err
		}
		e.addPartition(bs.part)
		e.blocks = append(e.blocks, bs)
	}

	ts := template.NewSet()
	for name, src := range v.Templates {
		if err := ts.Add(name, src); err != nil {
			return nil, err
		}
	}
	e.gen = htmlgen.New(e.site, ts)
	if opts != nil {
		e.gen.Obs = opts.Gen
	}
	for coll, name := range v.PerCollection {
		e.gen.PerCollection[coll] = name
	}
	for oid, name := range v.PerObject {
		e.gen.PerObject[graph.OID(oid)] = name
	}
	for prefix, name := range v.ObjectTemplatePrefixes {
		e.gen.PerPrefix[prefix] = name
	}
	roots := make([]graph.OID, len(v.Roots))
	for i, r := range v.Roots {
		roots[i] = graph.OID(r)
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

// Apply propagates one data delta: re-derive affected relations, splice
// the re-constructed partitions into the site graph, regenerate dirty
// pages. data must already reflect the delta. It returns the file names
// of the pages it regenerated or dropped. On a *Bailout (or any error)
// the engine is corrupt and must be discarded.
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
	changedSet := map[graph.OID]bool{}
	for _, bs := range e.blocks {
		if !dynamic.AffectedBy(bs.deps, delta, data) {
			continue
		}
		var newPart *graph.Graph
		var err error
		if bs.sites != nil {
			if err = e.applyTierA(bs, data, delta); err != nil {
				return nil, err
			}
			newPart, err = e.constructBlock(bs)
		} else {
			if e.Obs != nil {
				e.Obs.BlocksReevaluated.Inc()
			}
			newPart, err = e.evalBlock(bs.blk, data)
		}
		if err != nil {
			return nil, err
		}
		old := bs.part
		bs.part = newPart
		// Add before remove so items present in both generations keep a
		// positive count and never churn through the site graph.
		for _, oid := range e.addPartition(newPart) {
			changedSet[oid] = true
		}
		removed, err := e.removePartition(old)
		if err != nil {
			return nil, err
		}
		for _, oid := range removed {
			changedSet[oid] = true
		}
	}
	if len(changedSet) == 0 {
		return nil, nil
	}
	changed := make([]graph.OID, 0, len(changedSet))
	for oid := range changedSet {
		changed = append(changed, oid)
	}
	pages, err := e.gen.Regenerate(e.out, changed)
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
func (e *Engine) evalBlock(blk *struql.Block, data struql.Source) (*graph.Graph, error) {
	res, err := struql.EvalWithEnv(&struql.Query{Blocks: []*struql.Block{blk}}, data, e.env, e.evalOpts())
	if err != nil {
		return nil, bail(ReasonEvalError, "block re-eval: %v", err)
	}
	return res.Graph, nil
}

// evalSite materializes a site's relation from scratch.
func (e *Engine) evalSite(st *siteState, data struql.Source) error {
	st.rows = map[string][]graph.Value{}
	if len(st.conds) == 0 {
		// The unit relation: constructions with no where clause run once.
		st.rows[""] = []graph.Value{}
		return nil
	}
	b, err := struql.EvalWhere(st.conds, data, nil, e.evalOpts())
	if err != nil {
		return bail(ReasonEvalError, "site eval: %v", err)
	}
	return e.insertRows(st, b)
}

// insertRows projects an evaluated relation onto the site's canonical
// columns and inserts each fresh row.
func (e *Engine) insertRows(st *siteState, b *struql.Bindings) error {
	if len(b.Rows) == 0 {
		return nil
	}
	idx := make([]int, len(st.vars))
	for i, v := range st.vars {
		if idx[i] = b.Index(v); idx[i] < 0 {
			return bail(ReasonEvalError, "relation lost column %s", v)
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
			if e.Obs != nil {
				e.Obs.RowsInserted.Inc()
			}
		}
	}
	return nil
}

// applyTierA pushes a delta through every construction site of a tier A
// block, updating the materialized relations in place.
func (e *Engine) applyTierA(bs *blockState, data struql.Source, delta *mediator.Delta) error {
	adds := &mediator.Delta{AddedEdges: delta.AddedEdges, AddedMembers: delta.AddedMembers}
	rems := &mediator.Delta{RemovedEdges: delta.RemovedEdges, RemovedMembers: delta.RemovedMembers}
	for _, st := range bs.sites {
		if len(st.conds) == 0 {
			continue // the unit relation never changes
		}
		recheckAll := false
		negHit := false
		for _, nd := range st.negDeps {
			// Removals inside a negation can give birth to rows the
			// positive conditions alone cannot derive: re-evaluate.
			if dynamic.AffectedBy(nd, rems, data) {
				negHit = true
				break
			}
			// Additions inside a negation can only kill rows: every
			// existing row must be ground-re-checked.
			if dynamic.AffectedBy(nd, adds, data) {
				recheckAll = true
			}
		}
		// An added edge satisfying an all-constant path condition can
		// give birth to arbitrary rows — the tuple pins no variable, so
		// there is nothing to seed with. Re-evaluate the site.
		if st.allConstPath && len(delta.AddedEdges) > 0 {
			negHit = true
		}
		if negHit {
			if e.Obs != nil {
				e.Obs.SitesReevaluated.Inc()
			}
			if err := e.evalSite(st, data); err != nil {
				return err
			}
			continue
		}
		// Insertions: seed the evaluator with each added tuple per
		// positive condition it can satisfy.
		for _, seed := range e.seedsFor(st, delta) {
			b, err := struql.EvalWhere(st.conds, data, seed, e.evalOpts())
			if err != nil {
				return bail(ReasonEvalError, "seeded eval: %v", err)
			}
			if err := e.insertRows(st, b); err != nil {
				return err
			}
		}
		// Deletions (delete-and-rederive): ground-re-check the rows that
		// mention a removed value; a row whose seeded evaluation comes
		// back empty has lost its last derivation.
		candidates := e.removalCandidates(st, delta, recheckAll)
		for _, k := range candidates {
			row := st.rows[k]
			seed := &struql.Bindings{Vars: st.vars, Rows: [][]graph.Value{row}}
			b, err := struql.EvalWhere(st.conds, data, seed, e.evalOpts())
			if err != nil {
				return bail(ReasonEvalError, "ground re-check: %v", err)
			}
			if len(b.Rows) == 0 {
				delete(st.rows, k)
				if e.Obs != nil {
					e.Obs.RowsRemoved.Inc()
				}
			}
		}
	}
	return nil
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

// removalCandidates returns the keys of rows that may have lost a
// derivation: rows mentioning any value of a removed tuple, or — when
// recheckAll or an all-constant path condition forces it — every row.
// The candidate set is a superset of the rows that actually die; the
// ground re-check decides. Keys are returned in sorted order so the
// re-check sequence is deterministic.
func (e *Engine) removalCandidates(st *siteState, delta *mediator.Delta, recheckAll bool) []string {
	if len(delta.RemovedEdges) == 0 && len(delta.RemovedMembers) == 0 && !recheckAll {
		return nil
	}
	all := recheckAll || (st.allConstPath && len(delta.RemovedEdges) > 0)
	anchors := map[string]bool{}
	if !all {
		for _, edge := range delta.RemovedEdges {
			anchors[graph.NewNode(edge.From).Key()] = true
			anchors[graph.NewString(edge.Label).Key()] = true
			anchors[edge.To.Key()] = true
		}
		for _, m := range delta.RemovedMembers {
			anchors[graph.NewNode(m.OID).Key()] = true
		}
	}
	var keys []string
	for k, row := range st.rows {
		if !all {
			hit := false
			for _, v := range row {
				if anchors[v.Key()] {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// constructBlock re-runs every construction site's create/link/collect
// clauses over its materialized relation, in definition order, yielding
// the block's partition of the site graph.
func (e *Engine) constructBlock(bs *blockState) (*graph.Graph, error) {
	part := graph.New()
	for _, st := range bs.sites {
		if len(st.construct.Create) == 0 && len(st.construct.Link) == 0 && len(st.construct.Collect) == 0 {
			continue
		}
		keys := make([]string, 0, len(st.rows))
		for k := range st.rows {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b := &struql.Bindings{Vars: st.vars, Rows: make([][]graph.Value, 0, len(keys))}
		for _, k := range keys {
			b.Rows = append(b.Rows, st.rows[k])
		}
		g, err := struql.ConstructOnly(st.construct, b, e.env)
		if err != nil {
			return nil, bail(ReasonEvalError, "construct: %v", err)
		}
		part.Merge(g)
	}
	return part, nil
}

// addPartition and removePartition splice a partition in or out of the
// live site graph by refcount. removePartition detects underflow: a
// count going negative means the maintained state diverged and can only
// be repaired by a full rebuild.
func (e *Engine) addPartition(part *graph.Graph) (changed []graph.OID) {
	for _, oid := range part.Nodes() {
		if e.nodeRefs[oid]++; e.nodeRefs[oid] == 1 {
			e.site.AddNode(oid)
			changed = append(changed, oid)
		}
	}
	part.Edges(func(edge graph.Edge) bool {
		if e.edgeRefs[edge]++; e.edgeRefs[edge] == 1 {
			e.site.AddEdge(edge.From, edge.Label, edge.To)
			changed = append(changed, edge.From)
		}
		return true
	})
	for _, coll := range part.CollectionNames() {
		e.site.DeclareCollection(coll)
		for _, oid := range part.Collection(coll) {
			mem := mediator.Membership{Coll: coll, OID: oid}
			if e.memberRefs[mem]++; e.memberRefs[mem] == 1 {
				e.site.AddToCollection(coll, oid)
				changed = append(changed, oid)
			}
		}
	}
	return changed
}

func (e *Engine) removePartition(part *graph.Graph) (changed []graph.OID, err error) {
	underflow := func(what string) error {
		return bail(ReasonSupportUnderflow, "%s refcount went negative", what)
	}
	var bad error
	part.Edges(func(edge graph.Edge) bool {
		switch e.edgeRefs[edge]--; {
		case e.edgeRefs[edge] == 0:
			delete(e.edgeRefs, edge)
			e.site.RemoveEdge(edge.From, edge.Label, edge.To)
			changed = append(changed, edge.From)
		case e.edgeRefs[edge] < 0:
			bad = underflow("edge")
			return false
		}
		return true
	})
	if bad != nil {
		return nil, bad
	}
	for _, coll := range part.CollectionNames() {
		for _, oid := range part.Collection(coll) {
			mem := mediator.Membership{Coll: coll, OID: oid}
			switch e.memberRefs[mem]--; {
			case e.memberRefs[mem] == 0:
				delete(e.memberRefs, mem)
				e.site.RemoveFromCollection(coll, oid)
				changed = append(changed, oid)
			case e.memberRefs[mem] < 0:
				return nil, underflow("membership")
			}
		}
	}
	for _, oid := range part.Nodes() {
		switch e.nodeRefs[oid]--; {
		case e.nodeRefs[oid] == 0:
			delete(e.nodeRefs, oid)
			e.site.RemoveNode(oid)
			changed = append(changed, oid)
		case e.nodeRefs[oid] < 0:
			return nil, underflow("node")
		}
	}
	return changed, nil
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
	st := &siteState{construct: blk, conds: conds, vars: canonicalVars(conds)}
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
		// the partition; its where clause still scopes nested blocks
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
