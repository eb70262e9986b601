// Package struql implements StruQL, Strudel's declarative language for
// querying and restructuring semistructured data (§2.2).
//
// A StruQL query is a sequence of blocks. Each block has a query stage —
// a where clause whose meaning is the relation of all assignments of query
// variables to oids and labels in the data graph satisfying its conditions
// — and a construction stage: create (Skolem-function node construction),
// link (edge construction), and collect (named output collections) clauses,
// applied once per row of that relation. Blocks nest; a nested block's
// where clause is conjoined with its ancestors' (the paper's Q1 ∧ Q2
// semantics). Since data graphs and site graphs are both labeled graphs,
// queries compose: a query can be applied to the result of another.
//
// Conditions include collection membership C(x), built-in predicates on
// nodes and atoms, comparisons with dynamic coercion, safe negation, single
// edges binding arc variables (x -> l -> y), and regular path expressions
// (x -> "a"."b"* -> y) that are more general than regular expressions
// because edge predicates may appear where labels do.
package struql

import (
	"sort"

	"strudel/internal/graph"
)

// Source is the evaluator's view of a graph. Two implementations matter:
// GraphSource (naive scans over a plain graph — the unoptimized baseline)
// and repo.Indexed (the repository's fully-indexed access paths, §2.1,
// answered from the graph's frozen snapshot).
// The optimizer consults the statistics methods to order conditions.
type Source interface {
	// Collection returns the members of the named collection, sorted.
	Collection(name string) []graph.OID
	// InCollection reports whether oid belongs to the named collection.
	InCollection(name string, oid graph.OID) bool
	// CollectionNames returns all collection names, sorted.
	CollectionNames() []string
	// CollectionSize returns the extent size of a collection.
	CollectionSize(name string) int
	// Out returns the outgoing edges of a node, sorted.
	Out(oid graph.OID) []graph.Edge
	// OutLabel returns the values of the node's edges with the label.
	OutLabel(oid graph.OID, label string) []graph.Value
	// EdgesLabeled returns every edge carrying the label.
	EdgesLabeled(label string) []graph.Edge
	// In returns every edge whose target equals v.
	In(v graph.Value) []graph.Edge
	// Nodes returns every node oid, sorted.
	Nodes() []graph.OID
	// Labels returns every edge label, sorted (the queryable schema).
	Labels() []string
	// LabelCount returns the number of edges with the label.
	LabelCount(label string) int
	// NumEdges returns the total edge count.
	NumEdges() int
	// NumNodes returns the total node count (an O(1) statistic).
	NumNodes() int
}

// GraphSource adapts a plain graph to Source with linear scans for the
// indexed access paths. It is the ablation baseline for experiment E6: the
// same queries run against it and against the indexed repository.
type GraphSource struct {
	G *graph.Graph
}

// NewGraphSource wraps g.
func NewGraphSource(g *graph.Graph) GraphSource { return GraphSource{G: g} }

// Collection returns the members of the named collection, sorted.
func (s GraphSource) Collection(name string) []graph.OID { return s.G.Collection(name) }

// InCollection reports whether oid belongs to the named collection.
func (s GraphSource) InCollection(name string, oid graph.OID) bool {
	return s.G.InCollection(name, oid)
}

// CollectionNames returns all collection names, sorted.
func (s GraphSource) CollectionNames() []string { return s.G.CollectionNames() }

// CollectionSize returns the extent size of a collection.
func (s GraphSource) CollectionSize(name string) int { return s.G.CollectionSize(name) }

// Out returns the outgoing edges of a node, sorted.
func (s GraphSource) Out(oid graph.OID) []graph.Edge { return s.G.Out(oid) }

// OutLabel returns the values of the node's edges with the label.
func (s GraphSource) OutLabel(oid graph.OID, label string) []graph.Value {
	return s.G.OutLabel(oid, label)
}

// EdgesLabeled scans every edge for the label.
func (s GraphSource) EdgesLabeled(label string) []graph.Edge { return s.G.EdgesLabeled(label) }

// In scans every edge for the target value.
func (s GraphSource) In(v graph.Value) []graph.Edge { return s.G.In(v) }

// Nodes returns every node oid, sorted.
func (s GraphSource) Nodes() []graph.OID { return s.G.Nodes() }

// Labels returns every edge label, sorted.
func (s GraphSource) Labels() []string { return s.G.Labels() }

// LabelCount scans every edge counting the label.
func (s GraphSource) LabelCount(label string) int { return len(s.EdgesLabeled(label)) }

// NumEdges returns the total edge count.
func (s GraphSource) NumEdges() int { return s.G.NumEdges() }

// NumNodes returns the total node count.
func (s GraphSource) NumNodes() int { return s.G.NumNodes() }

// UnionSource presents the union of two sources as one graph; composed
// queries see the original data graph plus graphs built by earlier queries.
// When both sides know a node or collection, answers concatenate with
// duplicates removed.
type UnionSource struct {
	A, B Source
}

// NewUnionSource returns the union of a and b.
func NewUnionSource(a, b Source) UnionSource { return UnionSource{A: a, B: b} }

// Collection returns the union of both members lists.
func (u UnionSource) Collection(name string) []graph.OID {
	return dedupOIDs(append(u.A.Collection(name), u.B.Collection(name)...))
}

// InCollection reports membership in either side.
func (u UnionSource) InCollection(name string, oid graph.OID) bool {
	return u.A.InCollection(name, oid) || u.B.InCollection(name, oid)
}

// CollectionNames returns the union of names.
func (u UnionSource) CollectionNames() []string {
	return dedupStrings(append(u.A.CollectionNames(), u.B.CollectionNames()...))
}

// CollectionSize returns the size of the unioned extent.
func (u UnionSource) CollectionSize(name string) int { return len(u.Collection(name)) }

// Out returns the union of outgoing edges.
func (u UnionSource) Out(oid graph.OID) []graph.Edge {
	return dedupEdges(append(u.A.Out(oid), u.B.Out(oid)...))
}

// OutLabel returns the union of attribute values.
func (u UnionSource) OutLabel(oid graph.OID, label string) []graph.Value {
	return dedupValues(append(u.A.OutLabel(oid, label), u.B.OutLabel(oid, label)...))
}

// EdgesLabeled returns the union of labeled edges.
func (u UnionSource) EdgesLabeled(label string) []graph.Edge {
	return dedupEdges(append(u.A.EdgesLabeled(label), u.B.EdgesLabeled(label)...))
}

// In returns the union of in-edges.
func (u UnionSource) In(v graph.Value) []graph.Edge {
	return dedupEdges(append(u.A.In(v), u.B.In(v)...))
}

// Nodes returns the union of node sets.
func (u UnionSource) Nodes() []graph.OID {
	return dedupOIDs(append(u.A.Nodes(), u.B.Nodes()...))
}

// Labels returns the union of label sets.
func (u UnionSource) Labels() []string {
	return dedupStrings(append(u.A.Labels(), u.B.Labels()...))
}

// LabelCount over-counts edges present in both sides; it is a statistic,
// not an answer, so the approximation is acceptable.
func (u UnionSource) LabelCount(label string) int {
	return u.A.LabelCount(label) + u.B.LabelCount(label)
}

// NumEdges over-counts shared edges, acceptable for a statistic.
func (u UnionSource) NumEdges() int { return u.A.NumEdges() + u.B.NumEdges() }

// NumNodes over-counts shared nodes, acceptable for a statistic.
func (u UnionSource) NumNodes() int { return u.A.NumNodes() + u.B.NumNodes() }

func dedupOIDs(in []graph.OID) []graph.OID {
	sort.Slice(in, func(i, j int) bool { return in[i] < in[j] })
	out := in[:0]
	for i, v := range in {
		if i == 0 || v != in[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func dedupStrings(in []string) []string {
	sort.Strings(in)
	out := in[:0]
	for i, v := range in {
		if i == 0 || v != in[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func dedupValues(in []graph.Value) []graph.Value {
	sort.Slice(in, func(i, j int) bool { return graph.KeyCompare(in[i], in[j]) < 0 })
	out := in[:0]
	for i, v := range in {
		if i == 0 || v != in[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func dedupEdges(in []graph.Edge) []graph.Edge {
	sort.Slice(in, func(i, j int) bool {
		a, b := in[i], in[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		return graph.KeyCompare(a.To, b.To) < 0
	})
	out := in[:0]
	for i, e := range in {
		if i == 0 || e != in[i-1] {
			out = append(out, e)
		}
	}
	return out
}
