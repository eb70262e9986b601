// Package repo implements Strudel's data repository for semistructured
// data (§2.1). Unlike repositories in traditional relational or
// object-oriented systems, it cannot rely on schema information to organize
// data, so it fully indexes both the schema and the data. Those indexes are
// the graph's frozen snapshot (graph.Frozen), built once per repository
// graph:
//
//   - the names of all collections and attributes: the snapshot's sorted
//     collection and label dictionaries (Labels, CollectionNames);
//   - the extent of each attribute: its label CSR, edges grouped by label
//     and then by source (EdgesLabeled, LabelStats);
//   - the extent of each collection: sorted member ids (Collection,
//     InCollection);
//   - the index on atomic values, global to the graph rather than per
//     collection or attribute: the in-CSR keyed by target value, which
//     covers atoms and nodes alike (In).
//
// The paper notes that building these indexes is expensive but that they
// pay for themselves in query evaluation — benchmark E6 reproduces both
// halves of that claim.
//
// The snapshot is also the storage form (§7): SaveBinary writes it as
// SGB2 and LoadBinary adopts the decoded snapshot as a graph's indexes.
// The direction is one way. A map graph is frozen into a snapshot, never
// rebuilt from one; a loaded graph is served, queried and saved (Save
// prints it as DDL) as the snapshot it was decoded into.
package repo

import (
	"sync"

	"strudel/internal/graph"
)

// Indexed is a repository graph together with its indexes. It is
// immutable: the graph it is built from must not be mutated afterwards.
// It satisfies struql.Source and struql.LabelStatser, answering every
// access path from the snapshot that Frozen builds on first use. Safe
// for concurrent readers.
type Indexed struct {
	g *graph.Graph // nil for an adopted snapshot

	frozen *graph.Frozen // nil past the snapshot's id capacity
	freeze sync.Once
}

// view is the read surface the snapshot and the map graph share.
type view interface {
	Collection(name string) []graph.OID
	InCollection(name string, oid graph.OID) bool
	CollectionNames() []string
	CollectionSize(name string) int
	Out(oid graph.OID) []graph.Edge
	OutLabel(oid graph.OID, label string) []graph.Value
	EdgesLabeled(label string) []graph.Edge
	In(v graph.Value) []graph.Edge
	Nodes() []graph.OID
	Labels() []string
	LabelStats(label string) (count, sources, targets int)
	NumEdges() int
	NumNodes() int
}

// NewIndexed adopts g without copying it and builds nothing: the
// snapshot is built by the first read.
func NewIndexed(g *graph.Graph) *Indexed { return &Indexed{g: g} }

// NewIndexedFrozen adopts a decoded snapshot as the indexes; there is
// no map graph behind it.
func NewIndexedFrozen(f *graph.Frozen) *Indexed {
	ix := &Indexed{frozen: f}
	ix.freeze.Do(func() {})
	return ix
}

// Frozen returns the snapshot, building it on first use. It returns nil
// when the graph exceeds the snapshot's packed id capacity; every read
// then falls back to scans over the map graph.
func (ix *Indexed) Frozen() *graph.Frozen {
	ix.freeze.Do(func() { ix.frozen = ix.g.Freeze() })
	return ix.frozen
}

func (ix *Indexed) view() view {
	if f := ix.Frozen(); f != nil {
		return f
	}
	return ix.g
}

// --- struql.Source and struql.LabelStatser ---

// Collection returns the members of the named collection, sorted.
func (ix *Indexed) Collection(name string) []graph.OID { return ix.view().Collection(name) }

// InCollection reports membership.
func (ix *Indexed) InCollection(name string, oid graph.OID) bool {
	return ix.view().InCollection(name, oid)
}

// CollectionNames returns all collection names, sorted.
func (ix *Indexed) CollectionNames() []string { return ix.view().CollectionNames() }

// CollectionSize returns the extent size of a collection.
func (ix *Indexed) CollectionSize(name string) int { return ix.view().CollectionSize(name) }

// Out returns oid's outgoing edges, sorted.
func (ix *Indexed) Out(oid graph.OID) []graph.Edge { return ix.view().Out(oid) }

// OutLabel returns the values of oid's edges with the given label.
func (ix *Indexed) OutLabel(oid graph.OID, label string) []graph.Value {
	return ix.view().OutLabel(oid, label)
}

// EdgesLabeled returns every edge with the given label: the attribute
// extent.
func (ix *Indexed) EdgesLabeled(label string) []graph.Edge { return ix.view().EdgesLabeled(label) }

// In returns every edge whose target equals v, node or atom: the global
// value index.
func (ix *Indexed) In(v graph.Value) []graph.Edge { return ix.view().In(v) }

// Nodes returns all node OIDs, sorted.
func (ix *Indexed) Nodes() []graph.OID { return ix.view().Nodes() }

// Labels returns every attribute name, sorted — the schema index.
func (ix *Indexed) Labels() []string { return ix.view().Labels() }

// LabelCount returns the number of edges with the given label.
func (ix *Indexed) LabelCount(label string) int {
	count, _, _ := ix.view().LabelStats(label)
	return count
}

// LabelStats returns one label's edge count, distinct sources and
// distinct targets, precomputed by the snapshot: the planner's
// statistics come from here without a scan.
func (ix *Indexed) LabelStats(label string) (count, sources, targets int) {
	return ix.view().LabelStats(label)
}

// NumEdges returns the total number of edges.
func (ix *Indexed) NumEdges() int { return ix.view().NumEdges() }

// NumNodes returns the total number of nodes.
func (ix *Indexed) NumNodes() int { return ix.view().NumNodes() }
