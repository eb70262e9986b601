package graph

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Membership is one (collection, member) pair.
type Membership struct {
	Coll string
	OID  OID
}

// Change is a net change to a snapshot, the input of Apply. Every list
// is sorted and holds no repeats: nodes by OID, edges by (From, Label,
// target key), memberships by (Coll, OID), collections by name. Every
// added element is absent from the snapshot and every removed one
// present. Nodes and declared collections are listed like edges because
// a snapshot keeps isolated nodes and empty collections.
type Change struct {
	AddedNodes, RemovedNodes     []OID
	AddedEdges, RemovedEdges     []Edge
	AddedMembers, RemovedMembers []Membership
	AddedColls, RemovedColls     []string
}

// Empty reports whether the change changes nothing.
func (c *Change) Empty() bool {
	return len(c.AddedNodes) == 0 && len(c.RemovedNodes) == 0 &&
		len(c.AddedEdges) == 0 && len(c.RemovedEdges) == 0 &&
		len(c.AddedMembers) == 0 && len(c.RemovedMembers) == 0 &&
		len(c.AddedColls) == 0 && len(c.RemovedColls) == 0
}

// CompareEdges orders edges as a Change lists them: by source, label,
// then target key.
func CompareEdges(a, b Edge) int {
	if c := cmp.Compare(a.From, b.From); c != 0 {
		return c
	}
	return cmpOutEdge(a, b)
}

// CompareMemberships orders memberships as a Change lists them: by
// collection, then member.
func CompareMemberships(a, b Membership) int {
	if c := strings.Compare(a.Coll, b.Coll); c != 0 {
		return c
	}
	return cmp.Compare(a.OID, b.OID)
}

// noID marks an old index with no counterpart in the new snapshot.
const noID = ^uint32(0)

// Apply returns the snapshot of f's graph with c applied: field for
// field the snapshot Freeze builds from that graph. It splices instead of
// re-freezing: the node, label and atom dictionaries merge with the
// entries that enter or leave, every kept id is renumbered through
// old→new index arrays, only the out-runs of the nodes c touches are
// merged anew, and the derived structures (label and in-adjacency CSRs,
// statistics) are rebuilt in linear passes. The cost is O(E) array
// copies plus O(|c| log |c|), and an O(N) node index rebuild only when
// nodes enter or leave. An empty change returns f itself; f is never
// modified.
//
// The result must be a graph: a removed node may keep no out-edge,
// in-edge or membership, an added edge or membership needs its nodes
// (and collection) in the result, and a removed collection must end
// empty. A change that breaks this or Change's ordering rules is an
// error, as is a result past the id capacity (a *CapacityError).
func (f *Frozen) Apply(c Change) (*Frozen, error) {
	if c.Empty() {
		return f, nil
	}
	if err := c.check(); err != nil {
		return nil, err
	}
	n := &Frozen{}
	var rm remap

	// Nodes.
	var err error
	if n.nodes, rm[KindNode], err = splice("node", f.nodes, c.AddedNodes, c.RemovedNodes, cmp.Compare[OID]); err != nil {
		return nil, err
	}
	n.nodeOf = f.nodeOf
	if rm[KindNode] != nil {
		n.nodeOf = make(map[OID]uint32, len(n.nodes))
		for i, oid := range n.nodes {
			n.nodeOf[oid] = uint32(i)
		}
	}

	// Labels and atoms enter when their first edge arrives and leave with
	// their last one.
	labelDelta := map[string]int{}
	valueDelta := map[Value]int{}
	for _, e := range c.RemovedEdges {
		labelDelta[e.Label]--
		valueDelta[e.To]--
	}
	for _, e := range c.AddedEdges {
		labelDelta[e.Label]++
		valueDelta[e.To]++
	}
	var addLabels, dropLabels []string
	for l, d := range labelDelta {
		switch old := f.LabelCount(l); {
		case old+d < 0:
			return nil, fmt.Errorf("graph: apply: removes absent %q edges", l)
		case old == 0 && d > 0:
			addLabels = append(addLabels, l)
		case old > 0 && old+d == 0:
			dropLabels = append(dropLabels, l)
		}
	}
	slices.Sort(addLabels)
	slices.Sort(dropLabels)
	lblMap := []uint32(nil)
	n.labels, lblMap, _ = splice("label", f.labels, addLabels, dropLabels, strings.Compare)
	n.labelOf = f.labelOf
	if lblMap != nil {
		n.labelOf = make(map[string]uint32, len(n.labels))
		for i, l := range n.labels {
			n.labelOf[l] = uint32(i)
		}
	}
	var adds, drops [KindFile + 1][]Value
	for v, d := range valueDelta {
		old := f.inDegree(v)
		switch {
		case old+d < 0:
			return nil, fmt.Errorf("graph: apply: removes absent edges into %s", v)
		case v.kind == KindNode:
			if old+d > 0 && !n.HasNode(v.oid) {
				return nil, fmt.Errorf("graph: apply: edge into absent node %s", v.oid)
			}
		case old == 0 && d > 0:
			adds[v.kind] = append(adds[v.kind], v)
		case old > 0 && old+d == 0:
			drops[v.kind] = append(drops[v.kind], v)
		}
	}
	for _, oid := range c.RemovedNodes {
		if v := NewNode(oid); f.inDegree(v)+valueDelta[v] != 0 {
			return nil, fmt.Errorf("graph: apply: removed node %s keeps in-edges", oid)
		}
	}
	n.strs, rm[KindString] = spliceAtoms(f.strs, adds[KindString], drops[KindString], Value.Str, strings.Compare)
	n.urls, rm[KindURL] = spliceAtoms(f.urls, adds[KindURL], drops[KindURL], Value.Str, strings.Compare)
	n.ints, rm[KindInt] = spliceAtoms(f.ints, adds[KindInt], drops[KindInt], Value.Int, cmp.Compare[int64])
	n.floats, rm[KindFloat] = spliceAtoms(f.floats, adds[KindFloat], drops[KindFloat], Value.Float, cmpFloat)
	n.files, rm[KindFile] = spliceAtoms(f.files, adds[KindFile], drops[KindFile],
		func(v Value) fileRef { return fileRef{ft: v.ft, path: v.str} }, cmpFile)
	if n.overCapacity() {
		return nil, &CapacityError{Nodes: len(n.nodes)}
	}

	if err := f.spliceOut(n, &rm, lblMap, c); err != nil {
		return nil, err
	}
	if err := f.spliceCollections(n, rm[KindNode], c); err != nil {
		return nil, err
	}
	n.buildDerived()
	return n, nil
}

// check verifies Change's ordering rules.
func (c *Change) check() error {
	if !strictlySorted(c.AddedNodes, cmp.Compare[OID]) || !strictlySorted(c.RemovedNodes, cmp.Compare[OID]) ||
		!strictlySorted(c.AddedEdges, CompareEdges) || !strictlySorted(c.RemovedEdges, CompareEdges) ||
		!strictlySorted(c.AddedMembers, CompareMemberships) || !strictlySorted(c.RemovedMembers, CompareMemberships) ||
		!strictlySorted(c.AddedColls, strings.Compare) || !strictlySorted(c.RemovedColls, strings.Compare) {
		return fmt.Errorf("graph: apply: change lists are not sorted without repeats")
	}
	return nil
}

func strictlySorted[T any](s []T, cmp func(a, b T) int) bool {
	for i := 1; i < len(s); i++ {
		if cmp(s[i-1], s[i]) >= 0 {
			return false
		}
	}
	return true
}

// inDegree returns the number of edges into v.
func (f *Frozen) inDegree(v Value) int {
	lo, hi, _ := f.inRange(v)
	return int(hi - lo)
}

// splice merges a sorted arena with sorted lists of entries to add (each
// absent) and to drop (each present). It returns the new arena and the
// old→new index array (noID for a dropped entry), or old itself and a nil
// array when both lists are empty.
func splice[T any](what string, old, add, drop []T, cmp func(a, b T) int) ([]T, []uint32, error) {
	if len(add) == 0 && len(drop) == 0 {
		return old, nil, nil
	}
	out := make([]T, 0, len(old)+len(add)-len(drop))
	idx := make([]uint32, len(old))
	for i, v := range old {
		for len(add) > 0 && cmp(add[0], v) < 0 {
			out = append(out, add[0])
			add = add[1:]
		}
		if len(add) > 0 && cmp(add[0], v) == 0 {
			return nil, nil, fmt.Errorf("graph: apply: added %s %v already present", what, v)
		}
		if len(drop) > 0 {
			if c := cmp(drop[0], v); c < 0 {
				break
			} else if c == 0 {
				idx[i] = noID
				drop = drop[1:]
				continue
			}
		}
		idx[i] = uint32(len(out))
		out = append(out, v)
	}
	if len(drop) > 0 {
		return nil, nil, fmt.Errorf("graph: apply: removed %s %v absent", what, drop[0])
	}
	return append(out, add...), idx, nil
}

// spliceAtoms is splice for one atom arena, given the entering and
// leaving values of its kind in any order; Apply derived both from the
// arena itself, so they always fit.
func spliceAtoms[T any](old []T, add, drop []Value, payload func(Value) T, cmp func(a, b T) int) ([]T, []uint32) {
	sorted := func(vs []Value) []T {
		out := make([]T, len(vs))
		for i, v := range vs {
			out[i] = payload(v)
		}
		slices.SortFunc(out, cmp)
		return out
	}
	out, idx, _ := splice("atom", old, sorted(add), sorted(drop), cmp)
	return out, idx
}

// remap holds, per value kind, the old→new arena index array of a
// splice; nil where the arena did not change.
type remap [KindFile + 1][]uint32

// ref renumbers an old vref.
func (rm *remap) ref(r uint32) uint32 {
	if m := rm[r>>vrefShift]; m != nil {
		return r&^vrefMask | m[r&vrefMask]
	}
	return r
}

// ref returns the vref of v, which must be in the snapshot.
func (f *Frozen) ref(v Value) uint32 {
	var i int
	switch v.kind {
	case KindNode:
		i = int(f.nodeOf[v.oid])
	case KindString:
		i, _ = slices.BinarySearch(f.strs, v.str)
	case KindURL:
		i, _ = slices.BinarySearch(f.urls, v.str)
	case KindInt:
		i, _ = slices.BinarySearch(f.ints, v.i64)
	case KindFloat:
		i, _ = slices.BinarySearchFunc(f.floats, v.f64, cmpFloat)
	case KindBool:
		i = int(v.i64)
	case KindFile:
		i, _ = slices.BinarySearchFunc(f.files, fileRef{ft: v.ft, path: v.str}, cmpFile)
	}
	return packRef(v.kind, uint32(i))
}

// spliceOut builds n's out CSR: each kept node's run is copied with its
// ids renumbered, and each node c touches has its run merged with c's
// removed and added edges, which are in the run's own order.
func (f *Frozen) spliceOut(n *Frozen, rm *remap, lblMap []uint32, c Change) error {
	// A removed node has no run in n: its removed edges must be its whole
	// old run.
	gone := make(map[OID]int, len(c.RemovedNodes))
	for _, oid := range c.RemovedNodes {
		gone[oid] = 0
	}
	rem := c.RemovedEdges
	if len(gone) > 0 {
		rem = make([]Edge, 0, len(c.RemovedEdges))
		for _, e := range c.RemovedEdges {
			if k, ok := gone[e.From]; ok {
				gone[e.From] = k + 1
			} else {
				rem = append(rem, e)
			}
		}
		for oid, k := range gone {
			if lo, hi, _ := f.outRange(oid); int(hi-lo) != k {
				return fmt.Errorf("graph: apply: removed node %s keeps out-edges", oid)
			}
		}
	}
	oldLbl := func(l uint32) uint32 {
		if lblMap != nil {
			return lblMap[l]
		}
		return l
	}
	renumber := lblMap != nil
	for _, m := range rm {
		renumber = renumber || m != nil
	}
	nEdges := len(f.outLbl) + len(c.AddedEdges) - len(c.RemovedEdges)
	n.outOff = make([]uint32, len(n.nodes)+1)
	n.outLbl = make([]uint32, 0, nEdges)
	n.outTo = make([]uint32, 0, nEdges)
	add := c.AddedEdges
	for nid, oid := range n.nodes {
		n.outOff[nid] = uint32(len(n.outLbl))
		var lo, hi uint32
		if oldID, had := f.nodeOf[oid]; had {
			lo, hi = f.outOff[oldID], f.outOff[oldID+1]
		}
		a, r := runOf(add, oid), runOf(rem, oid)
		add, rem = add[len(a):], rem[len(r):]
		if len(a) == 0 && len(r) == 0 {
			start := len(n.outLbl)
			n.outLbl = append(n.outLbl, f.outLbl[lo:hi]...)
			n.outTo = append(n.outTo, f.outTo[lo:hi]...)
			if renumber {
				for p := start; p < len(n.outLbl); p++ {
					n.outLbl[p] = oldLbl(n.outLbl[p])
					n.outTo[p] = rm.ref(n.outTo[p])
				}
			}
			continue
		}
		for p := lo; p < hi || len(a) > 0; {
			if p < hi {
				old := Edge{From: oid, Label: f.labels[f.outLbl[p]], To: f.value(f.outTo[p])}
				if len(r) > 0 {
					if d := cmpOutEdge(r[0], old); d < 0 {
						break
					} else if d == 0 {
						p++
						r = r[1:]
						continue
					}
				}
				d := 1
				if len(a) > 0 {
					d = cmpOutEdge(a[0], old)
				}
				if d == 0 {
					return fmt.Errorf("graph: apply: added edge %s already present", a[0])
				}
				if d > 0 {
					n.outLbl = append(n.outLbl, oldLbl(f.outLbl[p]))
					n.outTo = append(n.outTo, rm.ref(f.outTo[p]))
					p++
					continue
				}
			}
			n.outLbl = append(n.outLbl, n.labelOf[a[0].Label])
			n.outTo = append(n.outTo, n.ref(a[0].To))
			a = a[1:]
		}
		if len(r) > 0 {
			return fmt.Errorf("graph: apply: removed edge %s absent", r[0])
		}
	}
	if len(add) > 0 {
		return fmt.Errorf("graph: apply: added edge %s from absent node", add[0])
	}
	if len(rem) > 0 {
		return fmt.Errorf("graph: apply: removed edge %s absent", rem[0])
	}
	n.outOff[len(n.nodes)] = uint32(len(n.outLbl))
	return nil
}

// runOf returns the leading edges of es whose source is oid. es is sorted
// by source; a leading edge from a node before oid is left in place, so
// the caller's walk reports it.
func runOf(es []Edge, oid OID) []Edge {
	k := 0
	for k < len(es) && es[k].From == oid {
		k++
	}
	return es[:k]
}

// spliceCollections builds n's collections: kept member lists are shared
// (or renumbered when nodes entered or left), and each collection c
// touches has its members merged with c's removed and added ones.
func (f *Frozen) spliceCollections(n *Frozen, nodeMap []uint32, c Change) error {
	var collMap []uint32
	var err error
	if n.collNames, collMap, err = splice("collection", f.collNames, c.AddedColls, c.RemovedColls, strings.Compare); err != nil {
		return err
	}
	n.collOf = f.collOf
	if collMap != nil {
		n.collOf = make(map[string]uint32, len(n.collNames))
		for i, name := range n.collNames {
			n.collOf[name] = uint32(i)
		}
	}
	// A removed collection's removed memberships must be all its members.
	rem := c.RemovedMembers
	if len(c.RemovedColls) > 0 {
		gone := make(map[string]int, len(c.RemovedColls))
		for _, name := range c.RemovedColls {
			gone[name] = 0
		}
		rem = make([]Membership, 0, len(c.RemovedMembers))
		for _, m := range c.RemovedMembers {
			k, ok := gone[m.Coll]
			if !ok {
				rem = append(rem, m)
				continue
			}
			if !f.InCollection(m.Coll, m.OID) {
				return fmt.Errorf("graph: apply: removed membership %v absent", m)
			}
			gone[m.Coll] = k + 1
		}
		for name, k := range gone {
			if f.CollectionSize(name) != k {
				return fmt.Errorf("graph: apply: removed collection %s keeps members", name)
			}
		}
	}
	member := func(old uint32) (uint32, error) {
		if nodeMap == nil {
			return old, nil
		}
		if id := nodeMap[old]; id != noID {
			return id, nil
		}
		return 0, fmt.Errorf("graph: apply: removed node %s keeps a membership", f.nodes[old])
	}
	added := func(m Membership) (uint32, error) {
		if id, ok := n.nodeOf[m.OID]; ok {
			return id, nil
		}
		return 0, fmt.Errorf("graph: apply: added membership %v of absent node", m)
	}
	add := c.AddedMembers
	n.collMembers = make([][]uint32, len(n.collNames))
	for i, name := range n.collNames {
		var old []uint32
		ci, had := f.collOf[name]
		if had {
			old = f.collMembers[ci]
		}
		ca, cr := memberRun(add, name), memberRun(rem, name)
		add, rem = add[len(ca):], rem[len(cr):]
		if had && len(ca) == 0 && len(cr) == 0 && nodeMap == nil {
			n.collMembers[i] = old
			continue
		}
		ids := make([]uint32, 0, len(old)+len(ca)-len(cr))
		for _, m := range old {
			oid := f.nodes[m]
			for len(ca) > 0 && ca[0].OID < oid {
				id, err := added(ca[0])
				if err != nil {
					return err
				}
				ids = append(ids, id)
				ca = ca[1:]
			}
			if len(ca) > 0 && ca[0].OID == oid {
				return fmt.Errorf("graph: apply: added membership %v already present", ca[0])
			}
			if len(cr) > 0 && cr[0].OID <= oid {
				if cr[0].OID < oid {
					break
				}
				cr = cr[1:]
				continue
			}
			id, err := member(m)
			if err != nil {
				return err
			}
			ids = append(ids, id)
		}
		if len(cr) > 0 {
			return fmt.Errorf("graph: apply: removed membership %v absent", cr[0])
		}
		for _, m := range ca {
			id, err := added(m)
			if err != nil {
				return err
			}
			ids = append(ids, id)
		}
		n.collMembers[i] = ids
	}
	if len(add) > 0 {
		return fmt.Errorf("graph: apply: added membership %v of absent collection", add[0])
	}
	if len(rem) > 0 {
		return fmt.Errorf("graph: apply: removed membership %v absent", rem[0])
	}
	return nil
}

// memberRun returns the leading memberships of ms in coll.
func memberRun(ms []Membership, coll string) []Membership {
	k := 0
	for k < len(ms) && ms[k].Coll == coll {
		k++
	}
	return ms[:k]
}
