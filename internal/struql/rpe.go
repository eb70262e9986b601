package struql

import (
	"sort"
	"sync"

	"strudel/internal/graph"
)

// nfa is a Thompson construction over edge predicates. States are dense
// ints; transitions are either epsilon or guarded by a label predicate.
type nfa struct {
	start  int
	accept int
	eps    [][]int      // eps[s] = states reachable by epsilon from s
	trans  [][]nfaTrans // trans[s] = predicate-guarded transitions
	states int
}

type nfaTrans struct {
	pred *PathExpr // PLabel, PAny, or PRegex leaf
	to   int
}

func (p *PathExpr) matchLabel(label string) bool {
	switch p.Op {
	case PLabel:
		return p.Label == label
	case PAny:
		return true
	case PRegex:
		return p.Re.MatchString(label)
	}
	return false
}

// compileNFA builds an NFA for the path expression.
func compileNFA(p *PathExpr) *nfa {
	n := &nfa{}
	n.start = n.newState()
	n.accept = n.newState()
	n.build(p, n.start, n.accept)
	return n
}

func (n *nfa) newState() int {
	n.eps = append(n.eps, nil)
	n.trans = append(n.trans, nil)
	n.states++
	return n.states - 1
}

func (n *nfa) addEps(from, to int) { n.eps[from] = append(n.eps[from], to) }
func (n *nfa) addTrans(from int, pred *PathExpr, to int) {
	n.trans[from] = append(n.trans[from], nfaTrans{pred: pred, to: to})
}

func (n *nfa) build(p *PathExpr, from, to int) {
	switch p.Op {
	case PLabel, PAny, PRegex:
		n.addTrans(from, p, to)
	case PConcat:
		cur := from
		for i, k := range p.Kids {
			var next int
			if i == len(p.Kids)-1 {
				next = to
			} else {
				next = n.newState()
			}
			n.build(k, cur, next)
			cur = next
		}
	case PAlt:
		for _, k := range p.Kids {
			n.build(k, from, to)
		}
	case PStar:
		mid := n.newState()
		n.addEps(from, mid)
		n.addEps(mid, to)
		n.build(p.Kids[0], mid, mid)
	case PPlus:
		mid := n.newState()
		n.build(p.Kids[0], from, mid)
		n.addEps(mid, to)
		n.build(p.Kids[0], mid, mid)
	case POpt:
		n.addEps(from, to)
		n.build(p.Kids[0], from, to)
	}
}

// closure expands a state set by epsilon transitions, in place, returning
// a canonical sorted slice.
func (n *nfa) closure(states []int) []int {
	seen := make(map[int]bool, len(states))
	stack := append([]int(nil), states...)
	for _, s := range states {
		seen[s] = true
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range n.eps[s] {
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

func (n *nfa) accepting(states []int) bool {
	for _, s := range states {
		if s == n.accept {
			return true
		}
	}
	return false
}

// stateKey canonicalizes a state set for memoization.
func stateKey(states []int) string {
	b := make([]byte, 0, len(states)*2)
	for _, s := range states {
		b = append(b, byte(s), byte(s>>8))
	}
	return string(b)
}

// pathMatcher evaluates x -> R -> y conditions against a snapshot, with a
// per-query memo of reachable-value sets keyed by start node. The memo is
// mutex-guarded so worker goroutines of the parallel evaluator can share
// one matcher; the BFS itself runs outside the lock (a start node raced by
// two workers is computed twice, with identical deterministic results).
type pathMatcher struct {
	nfa *nfa
	// frozen is iterated in place during the product BFS.
	frozen *graph.Frozen
	// maxStates, when positive, caps the product states one BFS may
	// visit before aborting with *ResourceExhausted.
	maxStates int

	mu   sync.Mutex
	memo map[graph.OID][]graph.Value
}

func newPathMatcher(p *PathExpr, frozen *graph.Frozen, maxStates int) *pathMatcher {
	return &pathMatcher{nfa: compileNFA(p), frozen: frozen, maxStates: maxStates,
		memo: make(map[graph.OID][]graph.Value)}
}

// reachableFrom is reachable for unlimited matchers, which cannot fail.
func (m *pathMatcher) reachableFrom(start graph.OID) []graph.Value {
	out, _ := m.reachable(start)
	return out
}

// reachable returns every value y such that a path from node start to
// y matches the expression, via BFS over the product of the graph and the
// NFA. If the expression matches the empty path, start itself (as a node
// value) is included. Results are deterministic (sorted by value key).
// With maxStates set, a BFS visiting more product states returns a
// *ResourceExhausted error instead of running away.
func (m *pathMatcher) reachable(start graph.OID) ([]graph.Value, error) {
	m.mu.Lock()
	got, ok := m.memo[start]
	m.mu.Unlock()
	if ok {
		return got, nil
	}
	type prodState struct {
		oid graph.OID
		key string
	}
	results := make(map[string]graph.Value)
	initial := m.nfa.closure([]int{m.nfa.start})
	if m.nfa.accepting(initial) {
		v := graph.NewNode(start)
		results[v.Key()] = v
	}
	visited := map[prodState][]int{}
	startPS := prodState{oid: start, key: stateKey(initial)}
	visited[startPS] = initial
	queue := []prodState{startPS}
	var exhausted *ResourceExhausted
	for len(queue) > 0 && exhausted == nil {
		cur := queue[0]
		queue = queue[1:]
		states := visited[cur]
		visit := func(label string, to graph.Value) bool {
			// Union of closures of all states reachable by this label.
			var nextSet []int
			seen := map[int]bool{}
			for _, s := range states {
				for _, tr := range m.nfa.trans[s] {
					if tr.pred.matchLabel(label) && !seen[tr.to] {
						seen[tr.to] = true
						nextSet = append(nextSet, tr.to)
					}
				}
			}
			if len(nextSet) == 0 {
				return true
			}
			nextSet = m.nfa.closure(nextSet)
			if m.nfa.accepting(nextSet) {
				results[to.Key()] = to
			}
			if to.IsNode() {
				ps := prodState{oid: to.OID(), key: stateKey(nextSet)}
				if _, ok := visited[ps]; !ok {
					if m.maxStates > 0 && len(visited) >= m.maxStates {
						exhausted = &ResourceExhausted{Limit: LimitNFAStates,
							Used: len(visited) + 1, Max: m.maxStates}
						return false
					}
					visited[ps] = nextSet
					queue = append(queue, ps)
				}
			}
			return true
		}
		m.frozen.ForEachOut(cur.oid, visit)
	}
	if exhausted != nil {
		return nil, exhausted
	}
	out := make([]graph.Value, 0, len(results))
	for _, v := range results {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	m.mu.Lock()
	m.memo[start] = out
	m.mu.Unlock()
	return out, nil
}

// matches reports whether a path from start to target matches.
func (m *pathMatcher) matches(start graph.OID, target graph.Value) (bool, error) {
	vs, err := m.reachable(start)
	if err != nil {
		return false, err
	}
	for _, v := range vs {
		if v == target {
			return true, nil
		}
	}
	return false, nil
}

// singleLabel returns (label, true) when the whole expression is one
// literal label — the common case the planner turns into an indexed edge
// scan.
func singleLabel(p *PathExpr) (string, bool) {
	if p.Op == PLabel {
		return p.Label, true
	}
	return "", false
}
