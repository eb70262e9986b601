package repo

import "strudel/internal/graph"

// NewIndexedUnfrozen is NewIndexed with the snapshot forced nil, as for
// a graph past the snapshot's id capacity, so every read takes the
// map-graph fallback.
func NewIndexedUnfrozen(g *graph.Graph) *Indexed {
	ix := NewIndexed(g)
	ix.freeze.Do(func() {})
	return ix
}
