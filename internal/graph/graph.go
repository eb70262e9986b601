package graph

import (
	"fmt"
	"sort"
)

// Edge is one labeled directed edge. From is always an internal node; To
// may be an internal node or an atomic value — in the semistructured model
// a node's attributes are exactly its outgoing edges.
type Edge struct {
	From  OID
	Label string
	To    Value
}

// String renders the edge in data-definition-language form.
func (e Edge) String() string {
	return fmt.Sprintf("&%s -%s-> %s", e.From, e.Label, e.To)
}

type nodeRec struct {
	out []Edge // insertion order; sorted lazily on demand
}

// Graph is a mutable labeled directed graph with named collections. It is
// not safe for concurrent mutation; concurrent readers are safe once
// mutation stops. All accessor iteration orders are deterministic.
type Graph struct {
	// nodes maps an OID to its record's index in recs. Records live in
	// one slab rather than behind per-node pointers: graphs hold very
	// many nodes, and the slab halves the allocation count of bulk loads
	// and query construction.
	nodes map[OID]int32
	recs  []nodeRec
	// collections maps a collection name to member OIDs in insertion order,
	// with a companion set for O(1) membership tests.
	collections map[string][]OID
	memberSet   map[string]map[OID]struct{}
	edgeCount   int
	edgeSet     map[Edge]struct{} // dedups identical edges
}

// New returns an empty graph.
func New() *Graph { return NewWithCapacity(0, 0) }

// NewWithCapacity returns an empty graph whose node and edge structures
// are pre-sized for the given counts. Bulk loaders (wrappers, the
// mediator's warehouse merge) that know their sizes up front avoid the
// incremental map rehashing that otherwise dominates load time.
func NewWithCapacity(nodes, edges int) *Graph {
	return &Graph{
		nodes:       make(map[OID]int32, nodes),
		recs:        make([]nodeRec, 0, nodes),
		collections: make(map[string][]OID),
		memberSet:   make(map[string]map[OID]struct{}),
		edgeSet:     make(map[Edge]struct{}, edges),
	}
}

// rec returns the record of oid, or nil. The pointer is invalidated by
// the next AddNode/AddEdge, which may grow the slab.
func (g *Graph) rec(oid OID) *nodeRec {
	if i, ok := g.nodes[oid]; ok {
		return &g.recs[i]
	}
	return nil
}

// AddNode ensures a node with the given OID exists and returns its Value.
func (g *Graph) AddNode(oid OID) Value {
	if _, ok := g.nodes[oid]; !ok {
		g.nodes[oid] = int32(len(g.recs))
		g.recs = append(g.recs, nodeRec{})
	}
	return NewNode(oid)
}

// HasNode reports whether the node exists.
func (g *Graph) HasNode(oid OID) bool {
	_, ok := g.nodes[oid]
	return ok
}

// AddEdge adds the edge from -label-> to, creating the source node (and the
// target node, when to is a node reference) as needed. Duplicate edges are
// ignored, matching set semantics of the model. It reports whether the edge
// was new.
func (g *Graph) AddEdge(from OID, label string, to Value) bool {
	e := Edge{From: from, Label: label, To: to}
	if _, dup := g.edgeSet[e]; dup {
		return false
	}
	g.AddNode(from)
	if to.IsNode() {
		g.AddNode(to.OID())
	}
	g.edgeSet[e] = struct{}{}
	rec := &g.recs[g.nodes[from]]
	rec.out = append(rec.out, e)
	g.edgeCount++
	return true
}

// AddEdges adds a batch of edges through the same dedup path as AddEdge
// and returns how many were new. It exists for bulk loaders: combined
// with NewWithCapacity the per-edge structures are grown once instead of
// rehashed incrementally.
func (g *Graph) AddEdges(edges []Edge) int {
	added := 0
	for _, e := range edges {
		if g.AddEdge(e.From, e.Label, e.To) {
			added++
		}
	}
	return added
}

// HasEdge reports whether the exact edge exists.
func (g *Graph) HasEdge(from OID, label string, to Value) bool {
	_, ok := g.edgeSet[Edge{From: from, Label: label, To: to}]
	return ok
}

// RemoveEdge deletes the exact edge; it reports whether it existed. The
// source and target nodes remain.
func (g *Graph) RemoveEdge(from OID, label string, to Value) bool {
	e := Edge{From: from, Label: label, To: to}
	if _, ok := g.edgeSet[e]; !ok {
		return false
	}
	delete(g.edgeSet, e)
	rec := g.rec(from)
	for i := range rec.out {
		if rec.out[i] == e {
			rec.out = append(rec.out[:i], rec.out[i+1:]...)
			break
		}
	}
	g.edgeCount--
	return true
}

// RemoveFromCollection removes oid from the named collection; it reports
// whether it was a member.
func (g *Graph) RemoveFromCollection(coll string, oid OID) bool {
	set, ok := g.memberSet[coll]
	if !ok {
		return false
	}
	if _, member := set[oid]; !member {
		return false
	}
	delete(set, oid)
	members := g.collections[coll]
	for i := range members {
		if members[i] == oid {
			g.collections[coll] = append(members[:i], members[i+1:]...)
			break
		}
	}
	return true
}

// RemoveNode deletes a node record and its outgoing edges; it reports
// whether the node existed. The caller is responsible for ensuring no
// other edges or memberships still reference the node (incremental
// maintenance tracks that with reference counts). The slab slot is
// abandoned, not reclaimed — node removal is rare (incremental dynamic
// maintenance only) and the map is the membership authority.
func (g *Graph) RemoveNode(oid OID) bool {
	i, ok := g.nodes[oid]
	if !ok {
		return false
	}
	rec := &g.recs[i]
	for _, e := range rec.out {
		delete(g.edgeSet, e)
		g.edgeCount--
	}
	rec.out = nil
	delete(g.nodes, oid)
	return true
}

// AddToCollection adds oid to the named collection, creating node and
// collection as needed. Objects may belong to multiple collections (§2.1).
func (g *Graph) AddToCollection(coll string, oid OID) {
	g.AddNode(oid)
	set, ok := g.memberSet[coll]
	if !ok {
		set = make(map[OID]struct{})
		g.memberSet[coll] = set
		if _, present := g.collections[coll]; !present {
			g.collections[coll] = nil
		}
	}
	if _, dup := set[oid]; dup {
		return
	}
	set[oid] = struct{}{}
	g.collections[coll] = append(g.collections[coll], oid)
}

// DeclareCollection ensures the named collection exists, possibly empty.
func (g *Graph) DeclareCollection(coll string) {
	if _, ok := g.collections[coll]; !ok {
		g.collections[coll] = nil
	}
	if _, ok := g.memberSet[coll]; !ok {
		g.memberSet[coll] = make(map[OID]struct{})
	}
}

// InCollection reports whether oid is a member of coll.
func (g *Graph) InCollection(coll string, oid OID) bool {
	_, ok := g.memberSet[coll][oid]
	return ok
}

// Collection returns the members of coll sorted by OID. The slice is fresh.
func (g *Graph) Collection(coll string) []OID {
	members := g.collections[coll]
	out := make([]OID, len(members))
	copy(out, members)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Members returns coll's members in insertion order: the graph's own
// slice, which the caller must not modify and which the next mutation
// may change.
func (g *Graph) Members(coll string) []OID { return g.collections[coll] }

// HasCollection reports whether coll is declared, possibly empty.
func (g *Graph) HasCollection(coll string) bool {
	_, ok := g.collections[coll]
	return ok
}

// CollectionSize returns the number of members of coll.
func (g *Graph) CollectionSize(coll string) int { return len(g.collections[coll]) }

// CollectionNames returns all collection names, sorted.
func (g *Graph) CollectionNames() []string {
	names := make([]string, 0, len(g.collections))
	for n := range g.collections {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CollectionsOf returns the names of collections containing oid, sorted.
func (g *Graph) CollectionsOf(oid OID) []string {
	var names []string
	for n, set := range g.memberSet {
		if _, ok := set[oid]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Nodes returns all node OIDs, sorted.
func (g *Graph) Nodes() []OID {
	out := make([]OID, 0, len(g.nodes))
	for oid := range g.nodes {
		out = append(out, oid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return g.edgeCount }

// OutList returns oid's out-edges in insertion order: the graph's own
// slice, which the caller must not modify and which the next mutation
// may change. It is nil for an absent node.
func (g *Graph) OutList(oid OID) []Edge {
	if rec := g.rec(oid); rec != nil {
		return rec.out
	}
	return nil
}

// ForEachNode calls fn for every node with its OutList, in no particular
// node order.
func (g *Graph) ForEachNode(fn func(oid OID, out []Edge)) {
	for oid, i := range g.nodes {
		fn(oid, g.recs[i].out)
	}
}

// Out returns the outgoing edges of oid sorted by (label, target key).
// The returned slice is fresh and safe to retain.
func (g *Graph) Out(oid OID) []Edge {
	rec := g.rec(oid)
	if rec == nil {
		return nil
	}
	out := make([]Edge, len(rec.out))
	copy(out, rec.out)
	sortEdges(out)
	return out
}

// OutLabel returns the values of oid's edges labeled label, sorted by key.
func (g *Graph) OutLabel(oid OID, label string) []Value {
	rec := g.rec(oid)
	if rec == nil {
		return nil
	}
	var vals []Value
	for _, e := range rec.out {
		if e.Label == label {
			vals = append(vals, e.To)
		}
	}
	sort.Slice(vals, func(i, j int) bool { return KeyCompare(vals[i], vals[j]) < 0 })
	return vals
}

// First returns the first value of oid's attribute label, or Null if absent.
func (g *Graph) First(oid OID, label string) Value {
	vals := g.OutLabel(oid, label)
	if len(vals) == 0 {
		return Null
	}
	return vals[0]
}

// Labels returns every distinct edge label in the graph, sorted — part of
// the queryable schema (§2.1: indexes contain the names of all collections
// and attributes).
func (g *Graph) Labels() []string {
	set := make(map[string]struct{})
	for _, i := range g.nodes {
		for _, e := range g.recs[i].out {
			set[e.Label] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Edges calls fn for every edge. Iteration order is deterministic:
// nodes by OID, then each node's edges sorted. fn returning false stops.
func (g *Graph) Edges(fn func(Edge) bool) {
	for _, oid := range g.Nodes() {
		for _, e := range g.Out(oid) {
			if !fn(e) {
				return
			}
		}
	}
}

// AllEdges returns every edge, deterministically ordered.
func (g *Graph) AllEdges() []Edge {
	out := make([]Edge, 0, g.edgeCount)
	g.Edges(func(e Edge) bool {
		out = append(out, e)
		return true
	})
	return out
}

// Copy returns a deep copy of the graph.
func (g *Graph) Copy() *Graph {
	c := NewWithCapacity(len(g.nodes), g.edgeCount)
	for oid, i := range g.nodes {
		c.AddNode(oid)
		for _, e := range g.recs[i].out {
			c.AddEdge(e.From, e.Label, e.To)
		}
	}
	for coll, members := range g.collections {
		c.DeclareCollection(coll)
		for _, m := range members {
			c.AddToCollection(coll, m)
		}
	}
	return c
}

// Merge adds all nodes, edges, and collection memberships of other into g.
// Nodes with equal OIDs unify, which is how composed StruQL queries extend
// a site graph across multiple queries (§6.2).
func (g *Graph) Merge(other *Graph) {
	for oid, i := range other.nodes {
		g.AddNode(oid)
		for _, e := range other.recs[i].out {
			g.AddEdge(e.From, e.Label, e.To)
		}
	}
	for coll, members := range other.collections {
		g.DeclareCollection(coll)
		for _, m := range members {
			g.AddToCollection(coll, m)
		}
	}
}

// Reachable returns the set of nodes reachable from start by any path
// (including start itself, if present in the graph).
func (g *Graph) Reachable(start OID) map[OID]struct{} {
	seen := make(map[OID]struct{})
	if !g.HasNode(start) {
		return seen
	}
	stack := []OID{start}
	seen[start] = struct{}{}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		rec := g.rec(cur)
		for _, e := range rec.out {
			if e.To.IsNode() {
				to := e.To.OID()
				if _, ok := seen[to]; !ok {
					seen[to] = struct{}{}
					stack = append(stack, to)
				}
			}
		}
	}
	return seen
}

func sortEdges(edges []Edge) {
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		return KeyCompare(a.To, b.To) < 0
	})
}

// Stats summarizes a graph for optimizer decisions and reporting.
type Stats struct {
	Nodes       int
	Edges       int
	Labels      int
	Collections int
}

// Stats returns summary statistics.
func (g *Graph) Stats() Stats {
	return Stats{
		Nodes:       g.NumNodes(),
		Edges:       g.NumEdges(),
		Labels:      len(g.Labels()),
		Collections: len(g.collections),
	}
}
