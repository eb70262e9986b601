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
// SGB2 and LoadBinary adopts the decoded snapshot. The direction is one
// way. A map graph is frozen into a snapshot, never rebuilt from one; a
// loaded graph is served, queried and saved (Save prints it as DDL) as
// the snapshot it was decoded into.
package repo

import "strudel/internal/graph"

// Indexed is the snapshot itself. It, NewIndexed and NewIndexedFrozen
// are for bench/probe only; delete when a benchmark PR repairs the
// probe.
type Indexed = graph.Frozen

// NewIndexed freezes g; nil past the snapshot's id capacity. For
// bench/probe only; delete when a benchmark PR repairs the probe.
func NewIndexed(g *graph.Graph) *Indexed { return g.Freeze() }

// NewIndexedFrozen returns f. For bench/probe only; delete when a
// benchmark PR repairs the probe.
func NewIndexedFrozen(f *graph.Frozen) *Indexed { return f }
