package struql

import "strudel/internal/graph"

// Sink receives what construction asserts, one item at a time and in
// row order: every node a create clause or Skolem term makes, every
// linked edge, every collected member. *graph.Graph is a Sink that
// collects them; the incremental maintainer counts them instead.
type Sink interface {
	AddNode(oid graph.OID) graph.Value
	AddEdge(from graph.OID, label string, to graph.Value) bool
	AddToCollection(coll string, oid graph.OID)
}

// ConstructOnly runs one block's create, link, and collect clauses over an
// externally supplied binding relation, returning the constructed graph.
// It is the construction half of evalBlock split out for incremental view
// maintenance: a maintainer that tracks a block's where-relation row by
// row can re-derive the block's contribution to the site graph without
// re-evaluating the where clause.
//
// The binding relation must bind every variable the construction clauses
// reference. Skolem identity flows through env, so sharing the same
// environment with other evaluations keeps oids consistent; construction
// is idempotent under the graph's set semantics, so duplicate rows are
// harmless. Nested blocks are NOT descended into — each block's
// construction is applied to its own relation.
func ConstructOnly(blk *Block, b *Bindings, env *SkolemEnv) (*graph.Graph, error) {
	g := graph.New()
	if err := ConstructTo(blk, b, env, g); err != nil {
		return nil, err
	}
	return g, nil
}

// ConstructTo is ConstructOnly with every assertion handed to dst as it
// is made, duplicates included, instead of collected in a graph. Given
// the same rows and an environment that already knows their Skolem
// terms, it replays exactly the same assertions, so a caller can count
// a row's contribution in and, later, out again.
func ConstructTo(blk *Block, b *Bindings, env *SkolemEnv, dst Sink) error {
	ctx := &evalCtx{env: env}
	return ctx.construct(blk, b, dst)
}
