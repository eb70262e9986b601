// Package constraints implements integrity constraints on
// Strudel-generated web sites (§2.5).
//
// Constraints are statements such as "all paper-presentation pages are
// reachable from a category page" or "every year page has a Year
// attribute". Each constraint supports three checks:
//
//   - CheckSite: an exact check against a materialized site graph — the
//     oracle, available only after evaluation.
//   - CheckStatic: a conservative check against the site schema alone,
//     in the spirit of [14]: Verified and Violated answers are sound;
//     Unknown means the schema does not decide the constraint.
//   - CheckData: translation of the site-graph constraint into a query on
//     the *data* graph via the site schema ("site schemas allow us to
//     translate constraint formulae on the site graph into formulae on the
//     data graph"), returning concrete witnesses of violation without ever
//     materializing the site.
package constraints

import (
	"fmt"
	"sort"
	"strings"

	"strudel/internal/graph"
	"strudel/internal/schema"
	"strudel/internal/struql"
)

// Verdict is the outcome of a constraint check.
type Verdict uint8

// Verdicts. Static checks may return Unknown; site checks only for a
// site past the snapshot's id capacity.
const (
	Unknown Verdict = iota
	Verified
	Violated
)

var verdictNames = [...]string{"unknown", "verified", "violated"}

func (v Verdict) String() string { return verdictNames[v] }

// Result carries a verdict, a human-readable reason, and — for Violated
// results from exact checks — the witnesses.
type Result struct {
	Verdict   Verdict
	Reason    string
	Witnesses []string
}

// Constraint is an integrity constraint on a Strudel-generated site.
type Constraint interface {
	fmt.Stringer
	// CheckSite exactly checks a materialized site graph.
	CheckSite(site *graph.Graph) Result
	// CheckStatic conservatively checks the site schema.
	CheckStatic(s *schema.Schema) Result
	// CheckData checks against the data graph through the site schema.
	CheckData(s *schema.Schema, data struql.Source) Result
}

// Reachability states that every object in set To is reachable from some
// object in set From by a path matching Path. Sets name Skolem functions
// (schema nodes) or output collections.
type Reachability struct {
	From string
	Path *struql.PathExpr
	To   string
}

func (c Reachability) String() string {
	return fmt.Sprintf("every %s reachable from %s via %s", c.To, c.From, c.Path)
}

// AttributeExists states that every object in Set has at least one
// outgoing edge labeled Label.
type AttributeExists struct {
	Set   string
	Label string
}

func (c AttributeExists) String() string {
	return fmt.Sprintf("every %s has %q", c.Set, c.Label)
}

// Connected states that every node of the site graph is reachable from
// some object in the Root set — the canonical "no orphan pages" check.
type Connected struct {
	Root string
}

func (c Connected) String() string { return fmt.Sprintf("connected from %s", c.Root) }

// membersOf resolves a set name on a materialized site graph: an output
// collection of that name if present, otherwise all Skolem-created nodes
// of that function (oids "Fn(...)").
func membersOf(site *graph.Graph, set string) []graph.OID {
	if site.CollectionSize(set) > 0 {
		return site.Collection(set)
	}
	var out []graph.OID
	prefix := set + "("
	for _, oid := range site.Nodes() {
		if strings.HasPrefix(string(oid), prefix) {
			out = append(out, oid)
		}
	}
	return out
}

// CheckSite verifies reachability exactly by running the path expression
// forward from every From member over one snapshot of the site.
func (c Reachability) CheckSite(site *graph.Graph) Result {
	from := membersOf(site, c.From)
	to := membersOf(site, c.To)
	if len(to) == 0 {
		return Result{Verdict: Verified, Reason: "target set is empty"}
	}
	snap := site.Freeze()
	if snap == nil {
		return Result{Verdict: Unknown, Reason: "site graph exceeds the snapshot's id capacity"}
	}
	reached := map[graph.OID]bool{}
	for _, f := range from {
		for _, v := range struql.ReachableVia(snap, f, c.Path) {
			if v.IsNode() {
				reached[v.OID()] = true
			}
		}
	}
	var missing []string
	for _, t := range to {
		if !reached[t] {
			missing = append(missing, string(t))
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return Result{Verdict: Violated,
			Reason:    fmt.Sprintf("%d of %d %s objects unreachable", len(missing), len(to), c.To),
			Witnesses: missing}
	}
	return Result{Verdict: Verified, Reason: fmt.Sprintf("all %d %s objects reachable", len(to), c.To)}
}

// CheckSite verifies the attribute exists on every member.
func (c AttributeExists) CheckSite(site *graph.Graph) Result {
	members := membersOf(site, c.Set)
	var missing []string
	for _, m := range members {
		if len(site.OutLabel(m, c.Label)) == 0 {
			missing = append(missing, string(m))
		}
	}
	if len(missing) > 0 {
		return Result{Verdict: Violated,
			Reason:    fmt.Sprintf("%d of %d %s objects lack %q", len(missing), len(members), c.Set, c.Label),
			Witnesses: missing}
	}
	return Result{Verdict: Verified, Reason: fmt.Sprintf("all %d %s objects carry %q", len(members), c.Set, c.Label)}
}

// CheckSite verifies global connectivity from the root set.
func (c Connected) CheckSite(site *graph.Graph) Result {
	roots := membersOf(site, c.Root)
	reached := map[graph.OID]bool{}
	for _, r := range roots {
		for oid := range site.Reachable(r) {
			reached[oid] = true
		}
	}
	var missing []string
	for _, oid := range site.Nodes() {
		if !reached[oid] {
			missing = append(missing, string(oid))
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return Result{Verdict: Violated,
			Reason:    fmt.Sprintf("%d of %d site objects unreachable from %s", len(missing), site.NumNodes(), c.Root),
			Witnesses: missing}
	}
	return Result{Verdict: Verified, Reason: fmt.Sprintf("all %d site objects reachable", site.NumNodes())}
}

// Parse reads one constraint in the textual form used by cmd tools:
//
//	every <Set> reachable from <Set> via <path-expr>
//	every <Set> has "<label>"
//	connected from <Set>
func Parse(src string) (Constraint, error) {
	fields := strings.Fields(src)
	bad := func() error { return fmt.Errorf("constraints: cannot parse %q", src) }
	switch {
	case len(fields) >= 3 && fields[0] == "connected" && fields[1] == "from":
		return Connected{Root: fields[2]}, nil
	case len(fields) >= 3 && fields[0] == "every" && fields[2] == "has":
		rest := strings.TrimSpace(strings.SplitN(src, " has ", 2)[1])
		label, err := unquote(rest)
		if err != nil {
			return nil, bad()
		}
		return AttributeExists{Set: fields[1], Label: label}, nil
	case len(fields) >= 6 && fields[0] == "every" && fields[2] == "reachable" && fields[3] == "from" && fields[5] == "via":
		pathSrc := strings.TrimSpace(strings.SplitN(src, " via ", 2)[1])
		pe, err := struql.ParsePathExpr(pathSrc)
		if err != nil {
			return nil, fmt.Errorf("constraints: %q: %w", src, err)
		}
		return Reachability{To: fields[1], From: fields[4], Path: pe}, nil
	}
	return nil, bad()
}

func unquote(s string) (string, error) {
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		return s[1 : len(s)-1], nil
	}
	return "", fmt.Errorf("expected quoted label, got %q", s)
}

// CheckAll runs CheckSite for a list of constraints and returns a combined
// report, useful in the build pipeline.
func CheckAll(cs []Constraint, site *graph.Graph) (bool, []Result) {
	ok := true
	results := make([]Result, len(cs))
	for i, c := range cs {
		results[i] = c.CheckSite(site)
		if results[i].Verdict == Violated {
			ok = false
		}
	}
	return ok, results
}
