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

// Source is what an evaluation reads a graph from: the copy surface.
// The optimized evaluator reads every source through one snapshot (see
// Snapshot): a *graph.Frozen is its own, §2.1's full indexing, a
// *graph.Graph freezes itself, and any other source — a test wrapper —
// is copied into one through these methods. NaiveEval, the reference
// evaluator, is the only one that answers queries through them.
type Source interface {
	// Nodes returns every node oid, sorted.
	Nodes() []graph.OID
	// Out returns the outgoing edges of a node, sorted.
	Out(oid graph.OID) []graph.Edge
	// CollectionNames returns all collection names, sorted.
	CollectionNames() []string
	// Collection returns the members of the named collection, sorted.
	Collection(name string) []graph.OID
	// NumNodes returns the total node count.
	NumNodes() int
	// NumEdges returns the total edge count.
	NumEdges() int
}

// Snapshot resolves the one snapshot an evaluation of src reads: a
// *graph.Frozen is its own, a *graph.Graph is frozen, and any other
// source is frozen from a copy.
// Every operator, the planner and the statistics read only that
// snapshot; so do the readers that are not evaluations (schema
// introspection, the dependency test of a swap). A graph past the
// snapshot's id capacity, or the nil snapshot Freeze returned for one,
// is a *graph.CapacityError.
func Snapshot(src Source) (*graph.Frozen, error) {
	switch s := src.(type) {
	case *graph.Frozen:
		if s == nil {
			return nil, &graph.CapacityError{}
		}
		return s, nil
	case *graph.Graph:
		return s.Snapshot()
	}
	return freezeCopy(src)
}

// freezeCopy freezes the union of what the sources hold — every node,
// edge and collection, empty collections included — into one snapshot.
// It gives a source without a snapshot of its own one, and it is the
// one graph a composed query reads: the base plus what earlier queries
// constructed (EvalSeq).
func freezeCopy(sources ...Source) (*graph.Frozen, error) {
	nodes, edges := 0, 0
	for _, s := range sources {
		nodes, edges = nodes+s.NumNodes(), edges+s.NumEdges()
	}
	g := graph.NewWithCapacity(nodes, edges)
	for _, s := range sources {
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
	return g.Snapshot()
}
