package struql

import (
	"fmt"
	"sort"
	"strings"

	"strudel/internal/graph"
)

// Access-path kinds a plan step can carry. They name how one condition
// will touch the source: seeks go through an index (a collection
// membership probe, a node's out-edges under one label, the in-edge or
// value index, a label-extent walk seeded from bound variables), scans
// visit an extent or the whole graph.
const (
	AccessFilter     = "filter"      // pure per-row predicate, no graph access
	AccessAntiJoin   = "anti-join"   // not(...) sub-evaluation per row
	AccessMemberScan = "scan-coll"   // enumerate a collection extent
	AccessMemberSeek = "member-seek" // probe membership of a bound node
	AccessSeekOut    = "seek-out"    // bound source node → out-edges by label
	AccessSeekIn     = "seek-in"     // bound target value → in-edge index
	AccessLabelScan  = "scan-label"  // walk one label's edge extent
	AccessEdgeScan   = "scan-edges"  // walk every edge
	AccessRPEFrom    = "rpe-from"    // product-automaton search from bound starts
	AccessRPESeed    = "rpe-seed"    // product-automaton search seeded by label index
	AccessRPEScan    = "rpe-scan"    // product-automaton search from every node
)

// seekAccess reports whether the access kind goes through an index
// (for the planner's seek-vs-scan dispatch counters).
func seekAccess(kind string) bool {
	switch kind {
	case AccessMemberSeek, AccessSeekOut, AccessSeekIn, AccessRPEFrom, AccessRPESeed:
		return true
	}
	return false
}

// scanAccess reports whether the access kind visits an extent or the
// whole graph.
func scanAccess(kind string) bool {
	switch kind {
	case AccessMemberScan, AccessLabelScan, AccessEdgeScan, AccessRPEScan:
		return true
	}
	return false
}

// accessKind strips the "[detail]" suffix from an access string,
// returning the bare Access* kind.
func accessKind(access string) string {
	if i := strings.IndexByte(access, '['); i >= 0 {
		return access[:i]
	}
	return access
}

// recordAccess counts one scheduled step's dispatch class in the
// planner metrics: index seek, full scan, or neither (filters).
func (ctx *evalCtx) recordAccess(access string) {
	if ctx.metrics == nil {
		return
	}
	kind := accessKind(access)
	switch {
	case seekAccess(kind):
		ctx.metrics.RecordSeek()
		if kind == AccessRPESeed {
			ctx.metrics.RecordRPESeed()
		}
	case scanAccess(kind):
		ctx.metrics.RecordScan()
	}
}

// seedStarts returns the distinct sources of the labels' edge extents,
// sorted — the seeded start set of a regular-path search whose accepted
// paths must all begin with one of the labels. Each label's extent is
// already grouped by ascending source node, so per-label distinct
// sources fall out of a linear walk; the cross-label merge sorts and
// dedups the (typically small) union.
func seedStarts(f *graph.Frozen, labels []string) []graph.Value {
	var oids []graph.OID
	for _, l := range labels {
		var prev graph.OID
		first := true
		f.ForEachLabeled(l, func(from graph.OID, _ graph.Value) bool {
			if first || from != prev {
				oids = append(oids, from)
				prev, first = from, false
			}
			return true
		})
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	out := make([]graph.Value, 0, len(oids))
	for i, o := range oids {
		if i == 0 || o != oids[i-1] {
			out = append(out, graph.NewNode(o))
		}
	}
	return out
}

// PlanStep is one scheduled condition: which condition runs (by its
// textual index), the access path chosen for it, its estimated cost
// (the expected rows-out/rows-in multiplier at selection time), and the
// runtime hints the operators consult.
type PlanStep struct {
	// Cond is the condition's printed form.
	Cond string
	// Index is the condition's zero-based textual position.
	Index int
	// Access is the chosen access path (one of the Access* kinds, plus
	// an optional "[detail]" suffix such as the label sought).
	Access string
	// Cost is the planner's estimated rows multiplier when the step was
	// selected.
	Cost float64
	// PreferIn asks a single-label path with both endpoints bound to
	// verify through the in-edge index rather than the source's
	// out-edges (chosen when the label's fan-in beats its fan-out).
	PreferIn bool
	// SeedLabels, for a regular-path condition with an unbound start
	// variable, lists the concrete labels every accepted path must start
	// with; evaluation seeds its start set from those labels' extents
	// instead of scanning every node. Empty means no seeding applies.
	SeedLabels []string
}

// Plan is the scheduled evaluation order of one where clause. It is
// what EXPLAIN renders and what the evaluator executes.
type Plan struct {
	Steps []PlanStep
	// Stats reports whether collected statistics informed the costs
	// (false under Options.NoStats — the heuristic baseline — and for
	// the textual NoReorder order).
	Stats bool
	// Textual marks a NoReorder plan: conditions run in first-ready
	// textual order and costs are not estimated.
	Textual bool
}

// String renders the plan compactly on one line — the form recorded in
// Result.Plan.
func (p *Plan) String() string {
	if p == nil || len(p.Steps) == 0 {
		return "empty"
	}
	parts := make([]string, len(p.Steps))
	for i, s := range p.Steps {
		if p.Textual {
			parts[i] = fmt.Sprintf("%s[%s]", s.Cond, s.Access)
		} else {
			parts[i] = fmt.Sprintf("%s[%s]$%.1f", s.Cond, s.Access, s.Cost)
		}
	}
	return strings.Join(parts, " ; ")
}

// Detail renders the plan as numbered lines, one per step — the EXPLAIN
// format. Each line shows the condition, its access path, the cost
// estimate, and the condition's original textual position when the
// planner moved it.
func (p *Plan) Detail(indent string) string {
	var b strings.Builder
	for i, s := range p.Steps {
		fmt.Fprintf(&b, "%s%d. %-44s %s", indent, i+1, s.Cond, s.Access)
		if !p.Textual {
			fmt.Fprintf(&b, "  cost=%.1f", s.Cost)
		}
		if s.Index != i {
			fmt.Fprintf(&b, "  (moved from #%d)", s.Index+1)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Reordered counts steps whose scheduled position differs from their
// textual position.
func (p *Plan) Reordered() int {
	n := 0
	for i, s := range p.Steps {
		if s.Index != i {
			n++
		}
	}
	return n
}

// planConds runs the planner once over one condition list: a greedy
// schedule that repeatedly picks the ready condition with the lowest
// estimated cost. Readiness keeps the schedule safe — filters wait for
// their variables, negations for every outer variable they mention —
// and the cost model orders the rest. With NoReorder the cost model is
// ignored and the first ready condition in textual order runs next
// (textual order itself would let an ill-ordered filter drop rows
// before its binder runs; first-ready keeps the declarative semantics).
func (ctx *evalCtx) planConds(conds []Cond, inputVars []string) (*Plan, error) {
	n := len(conds)
	textual := ctx.opts.NoReorder
	plan := &Plan{Stats: ctx.stats != nil, Textual: textual}
	bound := map[string]bool{}
	for _, v := range inputVars {
		bound[v] = true
	}
	// canBind is everything the positive conditions can bind; filters and
	// negations wait until their referenced bindable variables are bound.
	canBind := map[string]bool{}
	for v := range bound {
		canBind[v] = true
	}
	for _, c := range conds {
		c.boundVars(canBind)
	}
	used := make([]bool, n)
	for len(plan.Steps) < n {
		best, bestCost := -1, 0.0
		var bestStep PlanStep
		for i, c := range conds {
			if used[i] {
				continue
			}
			step, ready := ctx.condCost(c, bound, canBind)
			if !ready {
				continue
			}
			if best == -1 || (!textual && step.Cost < bestCost) {
				best, bestCost, bestStep = i, step.Cost, step
			}
			if textual {
				break // first ready in textual order wins
			}
		}
		if best == -1 {
			return nil, &ParseError{Line: conds[0].condLine(),
				Msg: "cannot schedule conditions: a filter refers to variables no positive condition binds"}
		}
		used[best] = true
		bestStep.Cond = conds[best].String()
		bestStep.Index = best
		plan.Steps = append(plan.Steps, bestStep)
		conds[best].boundVars(bound)
	}
	return plan, nil
}

// condCost estimates the cost (rows-produced multiplier) of evaluating
// c now and decides its access path. With statistics available the
// per-label estimates come from the label's measured extent; without
// them (Options.NoStats) the uniform average-degree heuristics of the
// pre-cost-model planner apply.
func (ctx *evalCtx) condCost(c Cond, bound, canBind map[string]bool) (PlanStep, bool) {
	termBound := func(t Term) bool { return !t.IsVar() || bound[t.Var] }
	switch c := c.(type) {
	case *MemberCond:
		if bound[c.Var] {
			return PlanStep{Access: AccessMemberSeek, Cost: 0.1}, true
		}
		return PlanStep{Access: AccessMemberScan + "[" + c.Coll + "]",
			Cost: float64(ctx.frozen.CollectionSize(c.Coll)) + 1}, true
	case *PredCond:
		if termBound(c.Arg) {
			return PlanStep{Access: AccessFilter, Cost: 0}, true
		}
		return PlanStep{}, false
	case *CmpCond:
		if termBound(c.L) && termBound(c.R) {
			return PlanStep{Access: AccessFilter, Cost: 0}, true
		}
		return PlanStep{}, false
	case *NotCond:
		refs := map[string]bool{}
		c.refVars(refs)
		for v := range refs {
			if canBind[v] && !bound[v] {
				return PlanStep{}, false
			}
		}
		return PlanStep{Access: AccessAntiJoin, Cost: 5}, true
	case *EdgeCond:
		switch {
		case termBound(c.From):
			return PlanStep{Access: AccessSeekOut, Cost: ctx.avgDeg}, true
		case termBound(c.To):
			return PlanStep{Access: AccessSeekIn, Cost: ctx.avgDeg}, true
		case bound[c.LabelVar]:
			return PlanStep{Access: AccessLabelScan, Cost: float64(ctx.frozen.NumEdges())/4 + 8}, true
		default:
			return PlanStep{Access: AccessEdgeScan, Cost: float64(ctx.frozen.NumEdges()) + 16}, true
		}
	case *PathCond:
		if label, ok := singleLabel(c.Path); ok {
			return ctx.singleLabelCost(c, label, termBound), true
		}
		return ctx.rpeCost(c, termBound), true
	}
	return PlanStep{}, false
}

// singleLabelCost plans x -> "l" -> y: a seek from whichever side is
// bound, with statistics choosing both the estimate and — when both
// sides are bound — the cheaper verification direction.
func (ctx *evalCtx) singleLabelCost(c *PathCond, label string, termBound func(Term) bool) PlanStep {
	fromB, toB := termBound(c.From), termBound(c.To)
	if ctx.stats == nil {
		// Heuristic baseline: uniform degree estimates.
		switch {
		case fromB:
			return PlanStep{Access: AccessSeekOut + "[" + label + "]", Cost: ctx.avgDeg}
		case toB:
			return PlanStep{Access: AccessSeekIn + "[" + label + "]", Cost: ctx.avgDeg}
		default:
			return PlanStep{Access: AccessLabelScan + "[" + label + "]",
				Cost: float64(ctx.frozen.LabelCount(label)) + 4}
		}
	}
	ls := ctx.stats.Label(label)
	switch {
	case fromB && toB:
		// Both endpoints bound: a cheap check, verified through whichever
		// index has the smaller extent per endpoint.
		preferIn := ls.Targets > ls.Sources
		access := AccessSeekOut
		if preferIn {
			access = AccessSeekIn
		}
		return PlanStep{Access: access + "[" + label + "]", Cost: 0.05, PreferIn: preferIn}
	case fromB:
		return PlanStep{Access: AccessSeekOut + "[" + label + "]", Cost: ctx.stats.FanOut(ls) + 0.1}
	case toB:
		return PlanStep{Access: AccessSeekIn + "[" + label + "]", Cost: ctx.stats.FanIn(ls) + 0.1}
	default:
		return PlanStep{Access: AccessLabelScan + "[" + label + "]", Cost: float64(ls.Count) + 1}
	}
}

// rpeCost plans a general regular-path condition. With a bound start
// the product search runs from those nodes. With an unbound start, a
// path that must begin with one of a known set of concrete labels is
// seeded from those labels' extents; otherwise every node seeds the
// search — the expensive fallback the planner schedules last.
func (ctx *evalCtx) rpeCost(c *PathCond, termBound func(Term) bool) PlanStep {
	if termBound(c.From) {
		cost := 4 * ctx.avgDeg
		if ctx.stats != nil {
			if labels, ok := startLabels(c.Path); ok {
				sum := 0.0
				for _, l := range labels {
					sum += float64(ctx.stats.Label(l).Count)
				}
				if n := ctx.stats.NumNodes; n > 0 {
					cost = 2*sum/float64(n) + 1
				}
			}
		}
		return PlanStep{Access: AccessRPEFrom, Cost: cost}
	}
	if ctx.stats != nil {
		if labels, ok := startLabels(c.Path); ok {
			sum := 0
			for _, l := range labels {
				sum += ctx.stats.Label(l).Sources
			}
			return PlanStep{Access: AccessRPESeed + "[" + strings.Join(labels, "|") + "]",
				Cost: 4*float64(sum) + 8, SeedLabels: labels}
		}
	}
	return PlanStep{Access: AccessRPEScan, Cost: float64(ctx.frozen.NumEdges())*4 + 64}
}

// startLabels computes the set of concrete labels an accepted path must
// start with. It reports ok=false when no such set exists: the
// expression can match the empty path (every node then matches itself,
// so no seed set is complete) or some first transition is a wildcard or
// regex predicate. The analysis is exact: it reads the compiled NFA's
// start closure.
func startLabels(p *PathExpr) ([]string, bool) {
	n := compileNFA(p)
	initial := n.closure([]int{n.start})
	if n.accepting(initial) {
		return nil, false // nullable: matches the empty path
	}
	set := map[string]bool{}
	for _, s := range initial {
		for _, tr := range n.trans[s] {
			if tr.pred.Op != PLabel {
				return nil, false
			}
			set[tr.pred.Label] = true
		}
	}
	if len(set) == 0 {
		return nil, false // no transitions: matches nothing, seeding moot
	}
	labels := make([]string, 0, len(set))
	for l := range set {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return labels, true
}

// Explain returns the evaluation plan of every block of q against src,
// without evaluating the query: per block, the scheduled condition
// order with access paths and cost estimates. Nested blocks inherit
// their ancestors' bound variables, exactly as evaluation would.
// The rendered form is stable and is pinned by golden tests.
func Explain(q *Query, src Source, opts *Options) (string, error) {
	ctx, err := newEvalCtx(src, opts)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	var walk func(blk *Block, path string, inherited []string) error
	walk = func(blk *Block, path string, inherited []string) error {
		fmt.Fprintf(&b, "block %s (line %d):\n", path, blk.Line)
		if len(blk.Where) == 0 {
			b.WriteString("  (no conditions)\n")
		} else {
			plan, err := ctx.orderConds(blk.Where, inherited)
			if err != nil {
				return err
			}
			b.WriteString(plan.Detail("  "))
		}
		// Variables visible to nested blocks: the inherited set plus this
		// block's bindings — or, after aggregation, the grouping variables
		// and aggregate results only.
		var next []string
		if len(blk.Aggregate) > 0 {
			next = append(next, blk.AggBy...)
			for _, a := range blk.Aggregate {
				next = append(next, a.As)
			}
		} else {
			set := map[string]bool{}
			for _, v := range inherited {
				set[v] = true
			}
			for _, c := range blk.Where {
				c.boundVars(set)
			}
			next = make([]string, 0, len(set))
			for v := range set {
				next = append(next, v)
			}
			sort.Strings(next)
		}
		for i, nb := range blk.Nested {
			if err := walk(nb, fmt.Sprintf("%s.%d", path, i+1), next); err != nil {
				return err
			}
		}
		return nil
	}
	for i, blk := range q.Blocks {
		if err := walk(blk, fmt.Sprintf("%d", i+1), nil); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}
