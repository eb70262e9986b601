package struql

import (
	"sort"

	"strudel/internal/graph"
)

// ReachableVia returns every value of the snapshot reachable from start
// by a path matching the regular path expression, in deterministic
// order. It is the building block other packages (constraint checking)
// use to ask reachability questions without re-implementing the
// product-automaton search.
func ReachableVia(f *graph.Frozen, start graph.OID, path *PathExpr) []graph.Value {
	return newPathMatcher(path, f, 0).reachableFrom(start)
}

// ParsePathExpr parses a standalone regular path expression such as
// `"Paper"`, `_*`, or `("a"|"b")+`.
func ParsePathExpr(src string) (*PathExpr, error) {
	p := &parser{lex: newLexer(src)}
	p.next()
	pe, err := p.pathExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf("unexpected %s after path expression", p.tok.describe())
	}
	return pe, nil
}

// MustParsePathExpr is ParsePathExpr for tests and literals.
func MustParsePathExpr(src string) *PathExpr {
	pe, err := ParsePathExpr(src)
	if err != nil {
		panic(err)
	}
	return pe
}

// PathNFASize returns the number of NFA states the expression compiles to,
// a complexity statistic used in experiment reporting.
func PathNFASize(p *PathExpr) int { return compileNFA(p).states }

// MatchesLabel reports whether a leaf path predicate (label literal, _, or
// ~"re") matches the given edge label.
func (p *PathExpr) MatchesLabel(label string) bool { return p.matchLabel(label) }

// NFA is an exported view of a compiled regular path expression, used by
// the constraints package to walk site schemas "in parallel" with a path
// expression.
type NFA struct{ n *nfa }

// NFAArc is one predicate-guarded transition: Pred is a leaf PathExpr
// (PLabel, PAny, or PRegex); To lists the epsilon-closed successor states.
type NFAArc struct {
	Pred *PathExpr
	To   []int
}

// CompilePath compiles a path expression to an NFA.
func CompilePath(p *PathExpr) *NFA { return &NFA{n: compileNFA(p)} }

// StartStates returns the epsilon closure of the start state.
func (a *NFA) StartStates() []int { return a.n.closure([]int{a.n.start}) }

// Accepting reports whether the state is the accepting state.
func (a *NFA) Accepting(state int) bool { return state == a.n.accept }

// AcceptingAny reports whether any of the states is accepting.
func (a *NFA) AcceptingAny(states []int) bool { return a.n.accepting(states) }

// Arcs returns the guarded transitions out of a state, with epsilon-closed
// target sets.
func (a *NFA) Arcs(state int) []NFAArc {
	var out []NFAArc
	for _, tr := range a.n.trans[state] {
		out = append(out, NFAArc{Pred: tr.pred, To: a.n.closure([]int{tr.to})})
	}
	return out
}

// RenameCond returns a deep copy of the condition with variables renamed
// per sub; variables absent from sub are kept. Used when constraint
// verification splices conditions from several query contexts into one
// violation query.
func RenameCond(c Cond, sub map[string]string) Cond {
	rt := func(t Term) Term {
		if t.IsVar() {
			if nv, ok := sub[t.Var]; ok {
				return VarTerm(nv)
			}
		}
		return t
	}
	rv := func(v string) string {
		if nv, ok := sub[v]; ok {
			return nv
		}
		return v
	}
	switch c := c.(type) {
	case *MemberCond:
		return &MemberCond{Coll: c.Coll, Var: rv(c.Var), Pos: c.Pos}
	case *PredCond:
		return &PredCond{Name: c.Name, Arg: rt(c.Arg), Pos: c.Pos}
	case *CmpCond:
		return &CmpCond{Op: c.Op, L: rt(c.L), R: rt(c.R), Pos: c.Pos}
	case *NotCond:
		inner := make([]Cond, len(c.Conds))
		for i, k := range c.Conds {
			inner[i] = RenameCond(k, sub)
		}
		return &NotCond{Conds: inner, Pos: c.Pos}
	case *EdgeCond:
		return &EdgeCond{From: rt(c.From), LabelVar: rv(c.LabelVar), To: rt(c.To), Pos: c.Pos}
	case *PathCond:
		return &PathCond{From: rt(c.From), Path: c.Path, To: rt(c.To), Pos: c.Pos}
	}
	return c
}

// CondVars returns the variables referenced anywhere in the condition.
func CondVars(c Cond) []string {
	set := map[string]bool{}
	c.boundVars(set)
	c.refVars(set)
	vars := make([]string, 0, len(set))
	for v := range set {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	return vars
}
