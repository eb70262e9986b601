package struql

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"strudel/internal/graph"
	"strudel/internal/obs"
)

// Options tunes evaluation; the zero value is the optimized default.
type Options struct {
	// NoReorder evaluates where conditions in first-ready textual order
	// instead of letting the planner order them by estimated cost — the
	// unoptimized baseline for experiments E6 and E14. "First-ready"
	// rather than strictly textual: a filter or negation whose variables
	// no earlier condition has bound yet waits for its binder, so the
	// declarative semantics (condition order never changes the result)
	// hold under this flag too.
	NoReorder bool
	// NoStats disables selectivity statistics: the planner falls back to
	// the fixed uniform-degree heuristics, and regular-path conditions
	// are never seeded from label indexes. This is the pre-cost-model
	// planner, kept as the before half of experiment E14.
	NoStats bool
	// Stats, when non-nil, supplies pre-collected selectivity statistics
	// (see CollectStats) instead of collecting them per evaluation — the
	// warm-statistics path. The Stats must describe the evaluated
	// source; stale statistics degrade plan quality but never
	// correctness, since access paths read the evaluated snapshot.
	// Ignored under NoStats.
	Stats *Stats
	// Parallelism is the worker count for the per-row operators: 0 uses
	// one worker per available CPU (the default), 1 forces the sequential
	// path, n>1 uses exactly n workers. Results are byte-identical at any
	// setting: rows are partitioned into contiguous chunks and chunk
	// outputs are concatenated in input order, so the binding relation —
	// and therefore the constructed graph — never depends on scheduling.
	Parallelism int
	// Metrics, when non-nil, receives per-operator row counts, cache
	// hit/miss counters, and worker-utilization counts. Nil (the
	// default) disables instrumentation at the cost of one branch per
	// operator application; results are identical either way.
	Metrics *obs.EvalMetrics
	// MaxRows, when positive, caps the binding-relation size: an
	// operator whose output exceeds it aborts evaluation with a
	// *ResourceExhausted error. It bounds the memory a cross product or
	// an unselective condition can consume.
	MaxRows int
	// MaxNFAStates, when positive, caps the product-automaton states a
	// path condition may visit per start node before aborting with a
	// *ResourceExhausted error. It bounds runaway regular-path closures
	// over large graphs.
	MaxNFAStates int
	// Deadline, when nonzero, is the wall-clock time after which
	// evaluation aborts with a *ResourceExhausted error. It is polled at
	// the same points as request-context cancellation (operator
	// boundaries and bounded row batches), so enforcement latency is a
	// few dozen row visits, not a whole operator.
	Deadline time.Time
}

// Result is the outcome of evaluating a query: the constructed graph (new
// nodes, edges, and output collections; edges may target atoms and nodes of
// the source graph) and evaluation statistics.
type Result struct {
	Graph *graph.Graph
	// Rows is the total number of binding rows produced by where stages.
	Rows int
	// Plan records, per block in evaluation order, the condition order the
	// planner chose, for explain-style inspection.
	Plan []string
}

// Bindings is the relation a where clause denotes: the set of assignments
// from query variables to oid and label values satisfying its conditions.
type Bindings struct {
	Vars []string
	Rows [][]graph.Value
}

// Index returns the column of a variable, or -1.
func (b *Bindings) Index(v string) int {
	for i, name := range b.Vars {
		if name == v {
			return i
		}
	}
	return -1
}

// Lookup returns the value of variable v in row r, or Null.
func (b *Bindings) Lookup(r int, v string) graph.Value {
	i := b.Index(v)
	if i < 0 {
		return graph.Null
	}
	return b.Rows[r][i]
}

// emptyBindings is the unit relation: no variables, one empty row.
func emptyBindings() *Bindings { return &Bindings{Rows: [][]graph.Value{{}}} }

// Eval evaluates a query against a source with a fresh Skolem environment.
func Eval(q *Query, src Source, opts *Options) (*Result, error) {
	return EvalWithEnv(q, src, NewSkolemEnv(), opts)
}

// EvalWithEnv evaluates a query with a caller-provided Skolem environment,
// the mechanism by which composed queries extend one site graph (§6.2).
func EvalWithEnv(q *Query, src Source, env *SkolemEnv, opts *Options) (*Result, error) {
	ctx, err := newEvalCtx(src, opts)
	if err != nil {
		return nil, err
	}
	ctx.env, ctx.out = env, graph.New()
	for _, blk := range q.Blocks {
		if err := ctx.evalBlock(blk, emptyBindings()); err != nil {
			return nil, err
		}
	}
	return &Result{Graph: ctx.out, Rows: ctx.rows, Plan: ctx.plans}, nil
}

// EvalSeq evaluates a sequence of queries, each seeing the union of the
// base source and everything constructed so far, sharing one Skolem
// environment — the composition style of the suciu example (§5.1).
func EvalSeq(queries []*Query, base Source, opts *Options) (*graph.Graph, error) {
	env := NewSkolemEnv()
	acc := graph.New()
	for i, q := range queries {
		// The first query reads base's own snapshot; each later one reads
		// a snapshot frozen from a copy of base and acc together.
		src := base
		if i > 0 {
			u, err := freezeCopy(base, acc)
			if err != nil {
				return nil, fmt.Errorf("query %d: %w", i+1, err)
			}
			src = u
		}
		r, err := EvalWithEnv(q, src, env, opts)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i+1, err)
		}
		acc.Merge(r.Graph)
	}
	return acc, nil
}

// EvalWhere evaluates a condition list seeded with existing bindings and
// returns the extended relation. The dynamic evaluator uses this to run
// the incremental query of one site-schema edge with the page's Skolem
// arguments pre-bound (§2.5).
func EvalWhere(conds []Cond, src Source, seed *Bindings, opts *Options) (*Bindings, error) {
	return EvalWhereCtx(context.Background(), conds, src, seed, opts)
}

// EvalWhereCtx is EvalWhere under a context: cancellation is observed at
// operator boundaries (between conditions) and, within one operator,
// between bounded row batches, so a cancelled caller — an abandoned or
// timed-out HTTP request — stops evaluation promptly instead of running
// the query to completion. The returned error wraps ctx.Err(), so
// errors.Is(err, context.Canceled/DeadlineExceeded) identifies it.
func EvalWhereCtx(reqCtx context.Context, conds []Cond, src Source, seed *Bindings, opts *Options) (*Bindings, error) {
	if seed == nil {
		seed = emptyBindings()
	}
	// Where-only: no construction state (output graph, Skolem
	// environment), and no plan strings, since no Result carries them.
	ctx, err := newEvalCtx(src, opts)
	if err != nil {
		return nil, err
	}
	ctx.suppressPlans = true
	if reqCtx != nil && reqCtx != context.Background() {
		ctx.reqCtx = reqCtx
	}
	return ctx.evalWhere(conds, seed)
}

type evalCtx struct {
	opts *Options
	// env and out are construction state, set by EvalWithEnv only;
	// where-only evaluations leave them nil.
	env   *SkolemEnv
	out   *graph.Graph
	rows  int
	plans []string
	// frozen is the snapshot every access path reads (see Snapshot).
	frozen *graph.Frozen
	// par is the resolved worker count for per-row operators.
	par int
	// avgDeg caches avgDegree(frozen) for the planner.
	avgDeg float64
	// stats is the selectivity statistics the cost model consults; nil
	// under Options.NoStats (the heuristic baseline).
	stats *Stats
	// suppressPlans stops plan recording during not(...) sub-evaluations,
	// which run once per candidate row, and in where-only evaluations,
	// which return no Plan.
	suppressPlans bool
	// reqCtx, when non-nil, is polled at operator boundaries and between
	// row batches so long evaluations can be cancelled mid-query.
	reqCtx context.Context
	// Resource guards (zero = unlimited), from Options.
	maxRows  int
	maxNFA   int
	deadline time.Time

	cache *matcherCache
	// planCache shares condition-ordering plans across the not(...)
	// sub-evaluations of one evaluation, which otherwise recompute the
	// same greedy plan once per candidate row — and, when the caller
	// supplies Options.Stats, across every evaluation sharing that Stats.
	planCache *planCache
	// metrics is the optional instrumentation sink (nil = disabled).
	metrics *obs.EvalMetrics
}

// newEvalCtx prepares a where-evaluation context; EvalWithEnv adds the
// construction state.
func newEvalCtx(src Source, opts *Options) (*evalCtx, error) {
	f, err := Snapshot(src)
	if err != nil {
		return nil, err
	}
	if opts == nil {
		opts = &Options{}
	}
	ctx := &evalCtx{
		opts:     opts,
		frozen:   f,
		par:      opts.parallelism(),
		avgDeg:   avgDegree(f),
		maxRows:  opts.MaxRows,
		maxNFA:   opts.MaxNFAStates,
		deadline: opts.Deadline,
		cache:    newMatcherCache(),
		metrics:  opts.Metrics,
	}
	if opts.NoStats {
		ctx.planCache = newPlanCache()
		return ctx, nil
	}
	ctx.stats = opts.Stats
	if ctx.stats == nil {
		ctx.stats = newStats(f)
		ctx.stats.metrics = opts.Metrics
		opts.Metrics.RecordStatsBuild()
	}
	// Statistics carry their plans: everything a plan depends on is
	// fixed for the source the Stats describes.
	ctx.planCache = ctx.stats.plans
	return ctx, nil
}

// forkSequential derives a context for a not(...) sub-evaluation running
// inside one worker: sequential (nested fan-out would oversubscribe the
// pool), plan recording off, matcher cache shared.
func (ctx *evalCtx) forkSequential() *evalCtx {
	return &evalCtx{
		opts:          ctx.opts,
		env:           ctx.env,
		out:           ctx.out,
		frozen:        ctx.frozen,
		par:           1,
		avgDeg:        ctx.avgDeg,
		stats:         ctx.stats,
		suppressPlans: true,
		reqCtx:        ctx.reqCtx,
		maxRows:       ctx.maxRows,
		maxNFA:        ctx.maxNFA,
		deadline:      ctx.deadline,
		cache:         ctx.cache,
		planCache:     ctx.planCache,
		metrics:       ctx.metrics,
	}
}

// cancelled returns a wrapped context error once the request context is
// done, or a *ResourceExhausted once the evaluation deadline has
// passed; nil while neither guard applies or trips.
func (ctx *evalCtx) cancelled() error {
	if ctx.reqCtx != nil {
		if err := ctx.reqCtx.Err(); err != nil {
			return fmt.Errorf("struql: evaluation cancelled: %w", err)
		}
	}
	if !ctx.deadline.IsZero() && time.Now().After(ctx.deadline) {
		ctx.metrics.RecordGuard(obs.GuardDeadline)
		return &ResourceExhausted{Limit: LimitDeadline}
	}
	return nil
}

// polled reports whether cancelled() can ever return non-nil, i.e.
// whether rowMap must batch rows between polls.
func (ctx *evalCtx) polled() bool {
	return ctx.reqCtx != nil || !ctx.deadline.IsZero()
}

func (ctx *evalCtx) matcher(p *PathExpr) *pathMatcher {
	return ctx.cache.get(p, ctx.frozen, ctx.maxNFA, ctx.metrics)
}

func (ctx *evalCtx) evalBlock(blk *Block, parent *Bindings) error {
	b, err := ctx.evalWhere(blk.Where, parent)
	if err != nil {
		return err
	}
	if len(blk.Aggregate) > 0 {
		b, err = aggregate(blk, b)
		if err != nil {
			return err
		}
	}
	ctx.rows += len(b.Rows)
	if err := ctx.construct(blk, b, ctx.out); err != nil {
		return err
	}
	for _, nb := range blk.Nested {
		if err := ctx.evalBlock(nb, b); err != nil {
			return err
		}
	}
	return nil
}

// evalWhere extends the parent relation by the conditions' constraints.
func (ctx *evalCtx) evalWhere(conds []Cond, parent *Bindings) (*Bindings, error) {
	// Output variable set: parent vars plus variables bound here.
	newVars := map[string]bool{}
	for _, c := range conds {
		c.boundVars(newVars)
	}
	vars := append([]string(nil), parent.Vars...)
	have := map[string]bool{}
	for _, v := range vars {
		have[v] = true
	}
	extras := make([]string, 0, len(newVars))
	for v := range newVars {
		if !have[v] {
			extras = append(extras, v)
		}
	}
	sort.Strings(extras)
	vars = append(vars, extras...)

	b := &Bindings{Vars: vars}
	for _, prow := range parent.Rows {
		row := make([]graph.Value, len(vars))
		copy(row, prow)
		b.Rows = append(b.Rows, row)
	}
	if len(conds) == 0 {
		return b, nil
	}

	ctx.metrics.RecordWhere()
	plan, err := ctx.orderConds(conds, parent.Vars)
	if err != nil {
		return nil, err
	}
	if !ctx.suppressPlans {
		ctx.plans = append(ctx.plans, plan.String())
	}
	ctx.metrics.RecordReorder(plan.Reordered())
	for _, step := range plan.Steps {
		if err := ctx.cancelled(); err != nil {
			return nil, err
		}
		ctx.recordAccess(step.Access)
		rowsIn := len(b.Rows)
		b, err = ctx.applyCond(conds[step.Index], step, b)
		if err != nil {
			return nil, err
		}
		if ctx.metrics != nil {
			ctx.metrics.RecordOp(opKind(conds[step.Index]), rowsIn, len(b.Rows))
		}
		if ctx.maxRows > 0 && len(b.Rows) > ctx.maxRows {
			ctx.metrics.RecordGuard(obs.GuardRows)
			return nil, &ResourceExhausted{Limit: LimitRows, Used: len(b.Rows), Max: ctx.maxRows}
		}
		if len(b.Rows) == 0 {
			break
		}
	}
	ctx.dedupRows(b)
	return b, nil
}

// opKind maps a condition to its obs operator index.
func opKind(c Cond) int {
	switch c.(type) {
	case *MemberCond:
		return obs.OpMember
	case *PredCond:
		return obs.OpPred
	case *CmpCond:
		return obs.OpCmp
	case *NotCond:
		return obs.OpNot
	case *EdgeCond:
		return obs.OpEdge
	case *PathCond:
		return obs.OpPath
	}
	return -1
}

// planKey identifies one condition-ordering problem: the conds slice
// (by the address of its first element plus its length — the key keeps
// that backing array alive, so the address is never reused; a Cond's
// own identity is not enough, since a site schema prefixes every nested
// block's list with its ancestors' conditions), the set of
// already-bound input variables, and whether the order is textual
// (NoReorder). Everything else the greedy planner consults (source
// sizes, statistics, avg degree) is fixed for the source the cache's
// evaluations read, so equal keys always produce equal plans.
type planKey struct {
	first   *Cond
	n       int
	bound   string
	textual bool
}

// planCache memoizes condition-ordering plans. Within one evaluation
// its payoff is not(...) sub-evaluations, which re-plan the same
// condition list once per candidate row. A cache owned by a caller's
// Options.Stats lives as long as that Stats, so every evaluation
// sharing it plans each (condition list, bound-variable set) once; it
// grows with the distinct condition lists evaluated under it.
type planCache struct {
	mu sync.Mutex
	m  map[planKey]*Plan
}

func newPlanCache() *planCache { return &planCache{m: map[planKey]*Plan{}} }

// orderConds returns the evaluation plan of a condition list: per
// condition, its scheduled position and access path. With NoReorder the
// schedule is first-ready textual order; otherwise the greedy planner
// picks, at each step, the ready condition with the lowest estimated
// cost given the bound variables. Plans are cached per (condition list,
// bound-variable set); cached plans are exactly what the planner would
// recompute, so caching never changes evaluation order.
func (ctx *evalCtx) orderConds(conds []Cond, inputVars []string) (*Plan, error) {
	if len(conds) == 0 {
		return &Plan{}, nil
	}
	key := planKey{first: &conds[0], n: len(conds), bound: strings.Join(inputVars, "\x00"),
		textual: ctx.opts.NoReorder}
	ctx.planCache.mu.Lock()
	if p, ok := ctx.planCache.m[key]; ok {
		ctx.planCache.mu.Unlock()
		ctx.metrics.RecordPlan(true)
		return p, nil
	}
	ctx.planCache.mu.Unlock()
	ctx.metrics.RecordPlan(false)
	plan, err := ctx.planConds(conds, inputVars)
	if err != nil {
		return nil, err
	}
	ctx.planCache.mu.Lock()
	ctx.planCache.m[key] = plan
	ctx.planCache.mu.Unlock()
	return plan, nil
}

func avgDegree(f *graph.Frozen) float64 {
	n := f.NumNodes()
	if n == 0 {
		return 1
	}
	return float64(f.NumEdges())/float64(n) + 1
}

// applyCond extends or filters the relation by one condition, honoring
// the access hints the planner attached to its step.
func (ctx *evalCtx) applyCond(c Cond, step PlanStep, b *Bindings) (*Bindings, error) {
	switch c := c.(type) {
	case *MemberCond:
		return ctx.applyMember(c, b)
	case *PredCond:
		return ctx.applyPred(c, b)
	case *CmpCond:
		return ctx.applyCmp(c, b)
	case *NotCond:
		return ctx.applyNot(c, b)
	case *EdgeCond:
		return ctx.applyEdge(c, b)
	case *PathCond:
		return ctx.applyPath(c, step, b)
	}
	return nil, fmt.Errorf("struql: unknown condition type %T", c)
}

// resolveTerm returns the term's value under the row, and whether it is
// known (constants always are; variables when non-null).
func resolveTerm(t Term, b *Bindings, row []graph.Value) (graph.Value, bool) {
	if !t.IsVar() {
		return t.Const, true
	}
	i := b.Index(t.Var)
	if i < 0 {
		return graph.Null, false
	}
	v := row[i]
	return v, !v.IsNull()
}

// resolveAt is resolveTerm with the variable's column precomputed.
func resolveAt(t Term, idx int, row []graph.Value) (graph.Value, bool) {
	if !t.IsVar() {
		return t.Const, true
	}
	if idx < 0 {
		return graph.Null, false
	}
	v := row[idx]
	return v, !v.IsNull()
}

func (ctx *evalCtx) applyMember(c *MemberCond, b *Bindings) (*Bindings, error) {
	vi := b.Index(c.Var)
	f := ctx.frozen
	// The extent is row-invariant: fetch it once, lazily (rows with a
	// bound variable probe membership and never need it), shared across
	// worker goroutines.
	var membersOnce sync.Once
	var members []graph.OID
	extent := func() []graph.OID {
		membersOnce.Do(func() { members = f.Collection(c.Coll) })
		return members
	}
	rows, err := ctx.rowMap(b.Rows, func(_ int, chunk [][]graph.Value) ([][]graph.Value, error) {
		var fr rowFrame
		out := make([][]graph.Value, 0, len(chunk))
		for _, row := range chunk {
			v := row[vi]
			if !v.IsNull() {
				if v.IsNode() && f.InCollection(c.Coll, v.OID()) {
					out = append(out, row)
				}
				continue
			}
			for _, m := range extent() {
				nr := fr.clone(row)
				nr[vi] = graph.NewNode(m)
				out = append(out, nr)
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return &Bindings{Vars: b.Vars, Rows: rows}, nil
}

func (ctx *evalCtx) applyPred(c *PredCond, b *Bindings) (*Bindings, error) {
	pred := builtinPreds[c.Name]
	ai := termIndex(c.Arg, b)
	rows, err := ctx.rowMap(b.Rows, func(_ int, chunk [][]graph.Value) ([][]graph.Value, error) {
		out := make([][]graph.Value, 0, len(chunk))
		for _, row := range chunk {
			v, known := resolveAt(c.Arg, ai, row)
			if known && pred(v) {
				out = append(out, row)
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return &Bindings{Vars: b.Vars, Rows: rows}, nil
}

func (ctx *evalCtx) applyCmp(c *CmpCond, b *Bindings) (*Bindings, error) {
	li, ri := termIndex(c.L, b), termIndex(c.R, b)
	rows, err := ctx.rowMap(b.Rows, func(_ int, chunk [][]graph.Value) ([][]graph.Value, error) {
		out := make([][]graph.Value, 0, len(chunk))
		for _, row := range chunk {
			l, lk := resolveAt(c.L, li, row)
			r, rk := resolveAt(c.R, ri, row)
			if !lk || !rk {
				continue
			}
			if cmpHolds(c.Op, l, r) {
				out = append(out, row)
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return &Bindings{Vars: b.Vars, Rows: rows}, nil
}

func cmpHolds(op CmpOp, l, r graph.Value) bool {
	switch op {
	case CmpEq:
		return graph.Equiv(l, r)
	case CmpNeq:
		return !graph.Equiv(l, r)
	}
	c := graph.Compare(l, r)
	switch op {
	case CmpLt:
		return c < 0
	case CmpLe:
		return c <= 0
	case CmpGt:
		return c > 0
	case CmpGe:
		return c >= 0
	}
	return false
}

// applyNot keeps rows for which the negated conjunction has no solution,
// seeding the sub-evaluation with the row's current bindings. Each worker
// runs its chunk's sub-evaluations in a sequential forked context.
func (ctx *evalCtx) applyNot(c *NotCond, b *Bindings) (*Bindings, error) {
	rows, err := ctx.rowMap(b.Rows, func(_ int, chunk [][]graph.Value) ([][]graph.Value, error) {
		sub := ctx.forkSequential()
		out := make([][]graph.Value, 0, len(chunk))
		for _, row := range chunk {
			seed := &Bindings{}
			for i, v := range b.Vars {
				if !row[i].IsNull() {
					seed.Vars = append(seed.Vars, v)
				}
			}
			srow := make([]graph.Value, 0, len(seed.Vars))
			for i := range b.Vars {
				if !row[i].IsNull() {
					srow = append(srow, row[i])
				}
			}
			seed.Rows = [][]graph.Value{srow}
			sb, err := sub.evalWhere(c.Conds, seed)
			if err != nil {
				return nil, err
			}
			if len(sb.Rows) == 0 {
				out = append(out, row)
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return &Bindings{Vars: b.Vars, Rows: rows}, nil
}

// bindIfConsistent writes v into row at position i when i >= 0; it reports
// false if the position already holds a different value.
func bindIfConsistent(row []graph.Value, i int, v graph.Value) bool {
	if i < 0 {
		return true
	}
	if row[i].IsNull() {
		row[i] = v
		return true
	}
	return row[i] == v
}

// applyEdge evaluates x -> l -> y with an arc variable, choosing the
// access path from what is already bound. Every access path iterates the
// snapshot's CSR in place instead of materializing edge slices.
func (ctx *evalCtx) applyEdge(c *EdgeCond, b *Bindings) (*Bindings, error) {
	fi, ti := termIndex(c.From, b), termIndex(c.To, b)
	li := b.Index(c.LabelVar)
	f := ctx.frozen
	rows, err := ctx.rowMap(b.Rows, func(_ int, chunk [][]graph.Value) ([][]graph.Value, error) {
		var fr rowFrame
		out := make([][]graph.Value, 0, len(chunk))
		for _, row := range chunk {
			from, fromKnown := resolveAt(c.From, fi, row)
			to, toKnown := resolveAt(c.To, ti, row)
			label := graph.Null
			labelKnown := false
			if li >= 0 && !row[li].IsNull() {
				label, labelKnown = row[li], true
			}
			emit := func(efrom graph.OID, elabel string, eto graph.Value) {
				nr := fr.clone(row)
				if !bindIfConsistent(nr, fi, graph.NewNode(efrom)) ||
					!bindIfConsistent(nr, li, graph.NewString(elabel)) ||
					!bindIfConsistent(nr, ti, eto) {
					fr.free(nr)
					return
				}
				out = append(out, nr)
			}
			switch {
			case fromKnown:
				if !from.IsNode() {
					continue
				}
				if labelKnown {
					lt := label.Text()
					f.ForEachOutLabel(from.OID(), lt, func(v graph.Value) bool {
						emit(from.OID(), lt, v)
						return true
					})
				} else {
					f.ForEachOut(from.OID(), func(elabel string, v graph.Value) bool {
						emit(from.OID(), elabel, v)
						return true
					})
				}
			case toKnown:
				lt := ""
				if labelKnown {
					lt = label.Text()
				}
				f.ForEachIn(to, func(efrom graph.OID, elabel string) bool {
					if !labelKnown || elabel == lt {
						emit(efrom, elabel, to)
					}
					return true
				})
			case labelKnown:
				lt := label.Text()
				f.ForEachLabeled(lt, func(efrom graph.OID, v graph.Value) bool {
					emit(efrom, lt, v)
					return true
				})
			default:
				for i, nn := 0, f.NumNodes(); i < nn; i++ {
					n := f.NodeAt(i)
					f.ForEachOut(n, func(elabel string, v graph.Value) bool {
						emit(n, elabel, v)
						return true
					})
				}
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return &Bindings{Vars: b.Vars, Rows: rows}, nil
}

// applyPath evaluates x -> R -> y. Single-literal paths use edge access
// paths; general expressions run the product-automaton BFS, its start
// set seeded from the planner's label hint when the path must begin
// with known concrete labels, from a full node scan otherwise.
func (ctx *evalCtx) applyPath(c *PathCond, step PlanStep, b *Bindings) (*Bindings, error) {
	if label, ok := singleLabel(c.Path); ok {
		return ctx.applySingleLabel(c, label, step, b)
	}
	fi, ti := termIndex(c.From, b), termIndex(c.To, b)
	m := ctx.matcher(c.Path)
	f := ctx.frozen
	// allStarts computes, once, the start set for rows whose from
	// variable is unbound: the distinct sources of the seed labels'
	// extents, or every node. Lazy — rows with a bound start never pay
	// for it — and shared across worker goroutines.
	var startsOnce sync.Once
	var seededStarts []graph.Value
	allStarts := func() []graph.Value {
		startsOnce.Do(func() {
			if len(step.SeedLabels) > 0 {
				seededStarts = seedStarts(f, step.SeedLabels)
				return
			}
			seededStarts = make([]graph.Value, f.NumNodes())
			for i := range seededStarts {
				seededStarts[i] = graph.NewNode(f.NodeAt(i))
			}
		})
		return seededStarts
	}
	rows, err := ctx.rowMap(b.Rows, func(_ int, chunk [][]graph.Value) ([][]graph.Value, error) {
		var fr rowFrame
		out := make([][]graph.Value, 0, len(chunk))
		for _, row := range chunk {
			from, fromKnown := resolveAt(c.From, fi, row)
			to, toKnown := resolveAt(c.To, ti, row)
			starts := []graph.Value{from}
			if !fromKnown {
				starts = allStarts()
			}
			for _, s := range starts {
				if !s.IsNode() {
					continue // paths start at nodes (active-domain semantics)
				}
				if toKnown {
					hit, err := m.matches(s.OID(), to)
					if err != nil {
						ctx.metrics.RecordGuard(obs.GuardNFAStates)
						return nil, err
					}
					if hit {
						nr := fr.clone(row)
						if bindIfConsistent(nr, fi, s) {
							out = append(out, nr)
						} else {
							fr.free(nr)
						}
					}
					continue
				}
				vs, err := m.reachable(s.OID())
				if err != nil {
					ctx.metrics.RecordGuard(obs.GuardNFAStates)
					return nil, err
				}
				for _, v := range vs {
					nr := fr.clone(row)
					if bindIfConsistent(nr, fi, s) && bindIfConsistent(nr, ti, v) {
						out = append(out, nr)
					} else {
						fr.free(nr)
					}
				}
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return &Bindings{Vars: b.Vars, Rows: rows}, nil
}

func (ctx *evalCtx) applySingleLabel(c *PathCond, label string, step PlanStep, b *Bindings) (*Bindings, error) {
	fi, ti := termIndex(c.From, b), termIndex(c.To, b)
	f := ctx.frozen
	rows, err := ctx.rowMap(b.Rows, func(_ int, chunk [][]graph.Value) ([][]graph.Value, error) {
		var fr rowFrame
		out := make([][]graph.Value, 0, len(chunk))
		for _, row := range chunk {
			from, fromKnown := resolveAt(c.From, fi, row)
			to, toKnown := resolveAt(c.To, ti, row)
			emit := func(efrom graph.OID, eto graph.Value) {
				nr := fr.clone(row)
				if bindIfConsistent(nr, fi, graph.NewNode(efrom)) && bindIfConsistent(nr, ti, eto) {
					out = append(out, nr)
				} else {
					fr.free(nr)
				}
			}
			switch {
			case fromKnown && toKnown && step.PreferIn:
				// Both endpoints bound and the label's fan-in is the
				// smaller: verify through the in-edge index.
				if !from.IsNode() {
					continue
				}
				f.ForEachInLabel(to, label, func(efrom graph.OID) bool {
					if efrom == from.OID() {
						emit(efrom, to)
					}
					return true
				})
			case fromKnown:
				if !from.IsNode() {
					continue
				}
				f.ForEachOutLabel(from.OID(), label, func(v graph.Value) bool {
					if !toKnown || v == to {
						emit(from.OID(), v)
					}
					return true
				})
			case toKnown:
				f.ForEachInLabel(to, label, func(efrom graph.OID) bool {
					emit(efrom, to)
					return true
				})
			default:
				f.ForEachLabeled(label, func(efrom graph.OID, v graph.Value) bool {
					emit(efrom, v)
					return true
				})
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return &Bindings{Vars: b.Vars, Rows: rows}, nil
}

func termIndex(t Term, b *Bindings) int {
	if !t.IsVar() {
		return -1
	}
	return b.Index(t.Var)
}

// cloneRow copies a row; the naive oracle evaluator uses it (the
// optimized operators clone through a rowFrame instead).
func cloneRow(row []graph.Value) []graph.Value {
	nr := make([]graph.Value, len(row))
	copy(nr, row)
	return nr
}

// rowFrame bump-allocates cloned binding rows out of large shared slabs,
// replacing one make+copy per emitted row with an amortized append. Each
// worker chunk owns its frame, so frames need no synchronization; rows
// escape into the binding relation as capped subslices of the slabs.
type rowFrame struct{ slab []graph.Value }

// Slab sizes: the first slab holds rowFrameFirstRows rows of the width
// being cloned — most operator chunks emit a handful of rows, and a
// click-time query is a few such operators, so any fixed-size first
// slab large enough for heavy chunks would be most of what it
// allocates — and each refill doubles, up to rowFrameSlabMax values,
// where heavy chunks amortize one allocation over thousands of rows.
const (
	rowFrameFirstRows = 8
	rowFrameSlabMax   = 16 * 1024
)

func (fr *rowFrame) clone(row []graph.Value) []graph.Value {
	n := len(row)
	if cap(fr.slab)-len(fr.slab) < n {
		sz := max(2*cap(fr.slab), rowFrameFirstRows*n)
		sz = max(min(sz, rowFrameSlabMax), n)
		fr.slab = make([]graph.Value, 0, sz)
	}
	lo := len(fr.slab)
	fr.slab = append(fr.slab, row...)
	return fr.slab[lo : lo+n : lo+n]
}

// free returns a row to the frame if it was the most recent clone — the
// emit helpers call it when a row fails a consistency bind, so rejected
// rows do not consume slab space.
func (fr *rowFrame) free(row []graph.Value) {
	n := len(row)
	if n > 0 && len(fr.slab) >= n && &fr.slab[len(fr.slab)-n] == &row[0] {
		fr.slab = fr.slab[:len(fr.slab)-n]
	}
}

func (ctx *evalCtx) dedupRows(b *Bindings) {
	if len(b.Rows) < 2 {
		return
	}
	// One byte arena holds every row's concatenated sort key (value keys
	// separated by NUL, the same total order as before), appended with
	// AppendKey — no per-row or per-value string allocation. Rows sort
	// and dedup through an index permutation over arena subslices.
	arena := make([]byte, 0, len(b.Rows)*24)
	offs := make([]int, len(b.Rows)+1)
	for i, row := range b.Rows {
		for _, v := range row {
			arena = graph.AppendKey(arena, v)
			arena = append(arena, 0)
		}
		offs[i+1] = len(arena)
	}
	key := func(i int) []byte { return arena[offs[i]:offs[i+1]] }
	idx := make([]int, len(b.Rows))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return bytes.Compare(key(idx[i]), key(idx[j])) < 0 })
	out := make([][]graph.Value, 0, len(b.Rows))
	for i, id := range idx {
		if i == 0 || !bytes.Equal(key(idx[i-1]), key(id)) {
			out = append(out, b.Rows[id])
		}
	}
	b.Rows = out
}

// aggregate groups the binding relation by the AggBy variables and folds
// each group through the aggregate expressions (§6.2's "grouping and
// aggregation" extension). The result binds only the grouping variables
// and the aggregate results, one row per group.
func aggregate(blk *Block, b *Bindings) (*Bindings, error) {
	byIdx := make([]int, len(blk.AggBy))
	for i, v := range blk.AggBy {
		byIdx[i] = b.Index(v)
		if byIdx[i] < 0 {
			return nil, fmt.Errorf("struql: line %d: grouping variable %s unbound", blk.Line, v)
		}
	}
	argIdx := make([]int, len(blk.Aggregate))
	for i, a := range blk.Aggregate {
		argIdx[i] = b.Index(a.Arg)
		if argIdx[i] < 0 {
			return nil, fmt.Errorf("struql: line %d: aggregated variable %s unbound", a.Pos, a.Arg)
		}
	}
	type group struct {
		key  []graph.Value
		rows [][]graph.Value
	}
	groups := map[string]*group{}
	var order []string
	for _, row := range b.Rows {
		key := make([]graph.Value, len(byIdx))
		var kb strings.Builder
		for i, bi := range byIdx {
			key[i] = row[bi]
			kb.WriteString(row[bi].Key())
			kb.WriteByte(0)
		}
		k := kb.String()
		g, ok := groups[k]
		if !ok {
			g = &group{key: key}
			groups[k] = g
			order = append(order, k)
		}
		g.rows = append(g.rows, row)
	}
	sort.Strings(order)
	out := &Bindings{Vars: append([]string(nil), blk.AggBy...)}
	for _, a := range blk.Aggregate {
		out.Vars = append(out.Vars, a.As)
	}
	for _, k := range order {
		g := groups[k]
		row := append([]graph.Value(nil), g.key...)
		for i, a := range blk.Aggregate {
			row = append(row, foldAgg(a.Fn, argIdx[i], g.rows))
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// foldAgg computes one aggregate over a group's distinct argument values.
// Count counts them; sum/avg fold their numeric readings (non-numeric
// values contribute 0); min/max use the dynamic-coercion order.
func foldAgg(fn AggFn, argIdx int, rows [][]graph.Value) graph.Value {
	distinct := map[string]graph.Value{}
	for _, row := range rows {
		v := row[argIdx]
		distinct[v.Key()] = v
	}
	if fn == AggCount {
		return graph.NewInt(int64(len(distinct)))
	}
	// Fold in sorted key order: float addition is not associative and
	// min/max tie-break on the first of Compare-equal values, so map
	// iteration order would otherwise leak into results.
	keys := make([]string, 0, len(distinct))
	for k := range distinct {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var best graph.Value
	sum := 0.0
	allInt := true
	first := true
	for _, k := range keys {
		v := distinct[k]
		switch fn {
		case AggSum, AggAvg:
			switch v.Kind() {
			case graph.KindInt:
				sum += float64(v.Int())
			case graph.KindFloat:
				sum += v.Float()
				allInt = false
			default:
				if f, ok := numericText(v); ok {
					sum += f
					allInt = false
				}
			}
		case AggMin:
			if first || graph.Compare(v, best) < 0 {
				best = v
			}
		case AggMax:
			if first || graph.Compare(v, best) > 0 {
				best = v
			}
		}
		first = false
	}
	switch fn {
	case AggSum:
		if allInt {
			return graph.NewInt(int64(sum))
		}
		return graph.NewFloat(sum)
	case AggAvg:
		if len(distinct) == 0 {
			return graph.NewFloat(0)
		}
		return graph.NewFloat(sum / float64(len(distinct)))
	}
	return best
}

func numericText(v graph.Value) (float64, bool) {
	var f float64
	_, err := fmt.Sscanf(v.Text(), "%g", &f)
	return f, err == nil
}

// construct runs the create, link, and collect clauses once per binding
// row (§2.2), handing every assertion to dst in row order. Skolem terms
// in link and collect clauses implicitly create their nodes; edges are
// only ever added from Skolem-created nodes, so existing nodes are never
// extended.
func (ctx *evalCtx) construct(blk *Block, b *Bindings, dst Sink) error {
	if len(blk.Create) == 0 && len(blk.Link) == 0 && len(blk.Collect) == 0 {
		return nil
	}
	// Resolve every variable reference to its column once per block, not
	// once per row, and reuse one argument buffer across rows (the Skolem
	// environment copies nothing out of it). Unbound-variable errors stay
	// per-row: a column can exist and still hold Null.
	type skPlan struct {
		fn   string
		pos  int
		args []string
		idx  []int
	}
	mkSk := func(st SkolemTerm) skPlan {
		p := skPlan{fn: st.Fn, pos: st.Pos, args: st.Args, idx: make([]int, len(st.Args))}
		for i, a := range st.Args {
			p.idx[i] = b.Index(a)
		}
		return p
	}
	type linkTarget struct {
		sk   *skPlan
		term *Term
		idx  int
		pos  int
	}
	mkTarget := func(t LinkTerm, pos int) linkTarget {
		if t.Skolem != nil {
			sk := mkSk(*t.Skolem)
			return linkTarget{sk: &sk, pos: pos}
		}
		return linkTarget{term: t.Term, idx: termIndex(*t.Term, b), pos: pos}
	}
	creates := make([]skPlan, len(blk.Create))
	for i, st := range blk.Create {
		creates[i] = mkSk(st)
	}
	type linkPlan struct {
		from       skPlan
		labelIsVar bool
		labelLit   string
		labelVar   string
		labelIdx   int
		to         linkTarget
		pos        int
	}
	links := make([]linkPlan, len(blk.Link))
	for i, le := range blk.Link {
		lp := linkPlan{from: mkSk(le.From), labelLit: le.Label.Lit, pos: le.Pos,
			to: mkTarget(le.To, le.Pos)}
		if le.Label.IsVar {
			lp.labelIsVar = true
			lp.labelVar = le.Label.Var
			lp.labelIdx = b.Index(le.Label.Var)
		}
		links[i] = lp
	}
	type collectPlan struct {
		coll   string
		target linkTarget
		pos    int
	}
	collects := make([]collectPlan, len(blk.Collect))
	for i, ce := range blk.Collect {
		collects[i] = collectPlan{coll: ce.Coll, target: mkTarget(ce.Target, ce.Pos), pos: ce.Pos}
	}

	argBuf := make([]graph.Value, 0, 8)
	skolemOID := func(p *skPlan, row []graph.Value) (graph.OID, error) {
		argBuf = argBuf[:0]
		for i, vi := range p.idx {
			if vi < 0 || row[vi].IsNull() {
				return "", fmt.Errorf("struql: line %d: Skolem argument %s unbound at construction", p.pos, p.args[i])
			}
			argBuf = append(argBuf, row[vi])
		}
		return ctx.env.OID(p.fn, argBuf), nil
	}
	resolveTarget := func(t *linkTarget, row []graph.Value) (graph.Value, error) {
		if t.sk != nil {
			oid, err := skolemOID(t.sk, row)
			if err != nil {
				return graph.Null, err
			}
			dst.AddNode(oid)
			return graph.NewNode(oid), nil
		}
		v, known := resolveAt(*t.term, t.idx, row)
		if !known {
			return graph.Null, fmt.Errorf("struql: line %d: variable %s unbound at construction", t.pos, t.term.Var)
		}
		return v, nil
	}
	for _, row := range b.Rows {
		for i := range creates {
			oid, err := skolemOID(&creates[i], row)
			if err != nil {
				return err
			}
			dst.AddNode(oid)
		}
		for i := range links {
			lp := &links[i]
			fromOID, err := skolemOID(&lp.from, row)
			if err != nil {
				return err
			}
			dst.AddNode(fromOID)
			label := lp.labelLit
			if lp.labelIsVar {
				if lp.labelIdx < 0 || row[lp.labelIdx].IsNull() {
					return fmt.Errorf("struql: line %d: arc variable %s unbound at construction", lp.pos, lp.labelVar)
				}
				label = row[lp.labelIdx].Text()
			}
			to, err := resolveTarget(&lp.to, row)
			if err != nil {
				return err
			}
			dst.AddEdge(fromOID, label, to)
		}
		for i := range collects {
			cp := &collects[i]
			v, err := resolveTarget(&cp.target, row)
			if err != nil {
				return err
			}
			if !v.IsNode() {
				return fmt.Errorf("struql: line %d: collect %s: collections contain objects, not the atom %s",
					cp.pos, cp.coll, v)
			}
			dst.AddToCollection(cp.coll, v.OID())
		}
	}
	return nil
}
