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

import "strudel/internal/graph"

// Source is the evaluator's view of a graph. The optimized evaluator
// reads every source through one snapshot (repo.Indexed and a bare
// *graph.Frozen supply their own, §2.1's full indexing; any other source
// is copied into one), so NaiveEval, the reference evaluator, is the
// only one that answers queries through the accessors below.
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
// indexed access paths. It is the reference evaluator's source for
// experiment E6; the optimized evaluator freezes a copy of it.
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

// readSurface is what a snapshot is copied from: every Source and a
// plain *graph.Graph offer it.
type readSurface interface {
	Nodes() []graph.OID
	Out(oid graph.OID) []graph.Edge
	CollectionNames() []string
	Collection(name string) []graph.OID
	NumNodes() int
	NumEdges() int
}

// freezeCopy freezes the union of what the surfaces hold — every node,
// edge and collection, empty collections included — into one snapshot,
// nil past the snapshot's id capacity. It gives a source without a
// snapshot of its own (GraphSource, a test wrapper) one, and it is the
// one graph a composed query reads: the base plus what earlier queries
// constructed (EvalSeq).
func freezeCopy(surfaces ...readSurface) *graph.Frozen {
	nodes, edges := 0, 0
	for _, s := range surfaces {
		nodes, edges = nodes+s.NumNodes(), edges+s.NumEdges()
	}
	g := graph.NewWithCapacity(nodes, edges)
	for _, s := range surfaces {
		for _, n := range s.Nodes() {
			g.AddNode(n)
			g.AddEdges(s.Out(n))
		}
		for _, c := range s.CollectionNames() {
			g.DeclareCollection(c)
			for _, m := range s.Collection(c) {
				g.AddToCollection(c, m)
			}
		}
	}
	return g.Freeze()
}
