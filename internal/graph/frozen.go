package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Frozen is a read-optimized, dictionary-encoded snapshot of a Graph.
// Nodes, labels, and atomic values are dense uint32 ids; adjacency is
// CSR-style (one flat edge array plus offsets per direction, edges
// sorted by label id for binary-search seeks); collections are sorted id
// slices; atom payloads live in typed arenas instead of per-edge Value
// boxes. A Frozen is immutable and safe for concurrent readers; all
// iteration orders match the mutable Graph's accessors, so swapping one
// in never changes observable results — only the allocation profile.
//
// Lifecycle: mutate a Graph, call Freeze, query the snapshot. A later
// mutation of the Graph is not seen by the snapshot; freeze, or Apply a
// Change to the last snapshot.
// Loading, reloading and evaluation all hand a snapshot on: it is the
// repository's one read surface (§2.1's full indexing).
type Frozen struct {
	// labels holds every distinct edge label, sorted, so label ids order
	// lexicographically and per-node label runs can be binary searched.
	labels  []string
	labelOf map[string]uint32

	// nodes holds every node OID, sorted; node ids order by OID.
	nodes  []OID
	nodeOf map[OID]uint32

	// Typed atom arenas, each sorted and deduplicated. A vref packs
	// (kind, arena index) into one uint32.
	strs   []string
	urls   []string
	ints   []int64
	floats []float64
	files  []fileRef

	// Out-adjacency CSR: node id → [outOff[id], outOff[id+1]) into the
	// parallel outLbl/outTo arrays, sorted by (label id, target key).
	outOff []uint32
	outLbl []uint32
	outTo  []uint32

	// Label-extent CSR: label id → [lblOff[id], lblOff[id+1]) into
	// lblFrom/lblTo, grouped by source node id ascending.
	lblOff  []uint32
	lblFrom []uint32
	lblTo   []uint32

	// In-adjacency CSR over distinct edge targets: target id →
	// [inOff[tid], inOff[tid+1]) into inFrom/inLbl, sorted by
	// (label id, source node id).
	inOff  []uint32
	inFrom []uint32
	inLbl  []uint32
	inTid  map[Value]uint32

	// Collections: names sorted, members as sorted node-id slices.
	collNames   []string
	collOf      map[string]uint32
	collMembers [][]uint32

	// stats caches per-label distinct source/target counts; edge counts
	// come from the label CSR offsets.
	stats []frozenStat
}

type fileRef struct {
	ft   FileType
	path string
}

type frozenStat struct {
	sources, targets uint32
}

// vref packs a value kind (top 4 bits) and an arena index (low 28 bits).
const (
	vrefShift = 28
	vrefMask  = (uint32(1) << vrefShift) - 1
)

func packRef(k Kind, idx uint32) uint32 { return uint32(k)<<vrefShift | idx }

// value reconstructs the Value a vref denotes.
func (f *Frozen) value(r uint32) Value {
	idx := r & vrefMask
	switch Kind(r >> vrefShift) {
	case KindNode:
		return Value{kind: KindNode, oid: f.nodes[idx]}
	case KindString:
		return Value{kind: KindString, str: f.strs[idx]}
	case KindURL:
		return Value{kind: KindURL, str: f.urls[idx]}
	case KindInt:
		return Value{kind: KindInt, i64: f.ints[idx]}
	case KindFloat:
		return Value{kind: KindFloat, f64: f.floats[idx]}
	case KindBool:
		return Value{kind: KindBool, i64: int64(idx)}
	case KindFile:
		fr := f.files[idx]
		return Value{kind: KindFile, ft: fr.ft, str: fr.path}
	}
	return Null
}

// CapacityError is the typed error for a graph past the snapshot's id
// capacity (2^28 distinct nodes, labels, or atoms of one kind). Such a
// graph has no snapshot, so it is refused wherever one is needed: at
// load, at reload and by StruQL evaluation.
type CapacityError struct {
	// Nodes is the graph's node count, 0 when unknown.
	Nodes int
}

func (e *CapacityError) Error() string {
	const msg = "graph: past the snapshot's 2^28-id capacity for nodes, labels or atoms"
	if e.Nodes == 0 {
		return msg
	}
	return fmt.Sprintf("%s (%d nodes)", msg, e.Nodes)
}

// Snapshot is Freeze for a caller that cannot go on without the
// snapshot: a graph past the capacity is a *CapacityError.
func (g *Graph) Snapshot() (*Frozen, error) {
	if f := g.Freeze(); f != nil {
		return f, nil
	}
	return nil, &CapacityError{Nodes: g.NumNodes()}
}

// Frozen returns f itself. For bench/probe only; delete when a
// benchmark PR repairs the probe.
func (f *Frozen) Frozen() *Frozen { return f }

// Freeze builds the compact snapshot of the graph's current state. It
// returns nil when the graph exceeds the packed-id capacity (2^28
// distinct nodes, labels, or atoms per kind): such a graph has no
// snapshot (see Snapshot).
func (g *Graph) Freeze() *Frozen {
	f := &Frozen{}

	// Collect distinct labels, atom payloads, and the node targets whose
	// record RemoveNode deleted while edges still point at them.
	labelDict := NewInterner()
	var dangling []OID
	strSet := map[string]struct{}{}
	urlSet := map[string]struct{}{}
	intSet := map[int64]struct{}{}
	floatSet := map[float64]struct{}{}
	fileSet := map[fileRef]struct{}{}
	for _, rec := range g.nodes {
		for _, e := range g.recs[rec].out {
			labelDict.Intern(e.Label)
			switch e.To.kind {
			case KindNode:
				if _, ok := g.nodes[e.To.oid]; !ok {
					dangling = append(dangling, e.To.oid)
				}
			case KindString:
				strSet[e.To.str] = struct{}{}
			case KindURL:
				urlSet[e.To.str] = struct{}{}
			case KindInt:
				intSet[e.To.i64] = struct{}{}
			case KindFloat:
				floatSet[e.To.f64] = struct{}{}
			case KindFile:
				fileSet[fileRef{ft: e.To.ft, path: e.To.str}] = struct{}{}
			}
		}
	}

	// Nodes, sorted, and their dense ids. A dangling target freezes as a
	// node with no out-edges, so the edge keeps pointing at it.
	f.nodes = make([]OID, 0, len(g.nodes)+len(dangling))
	for oid := range g.nodes {
		f.nodes = append(f.nodes, oid)
	}
	f.nodes = append(f.nodes, dangling...)
	sort.Slice(f.nodes, func(i, j int) bool { return f.nodes[i] < f.nodes[j] })
	f.nodes = slices.Compact(f.nodes)
	if len(f.nodes) > int(vrefMask) {
		return nil
	}
	f.nodeOf = make(map[OID]uint32, len(f.nodes))
	for i, oid := range f.nodes {
		f.nodeOf[oid] = uint32(i)
	}

	f.labels = append(make([]string, 0, labelDict.Len()), labelDict.Strings()...)
	sort.Strings(f.labels)
	f.labelOf = make(map[string]uint32, len(f.labels))
	for i, l := range f.labels {
		f.labelOf[l] = uint32(i)
	}
	f.strs = sortedStringSet(strSet)
	f.urls = sortedStringSet(urlSet)
	f.ints = make([]int64, 0, len(intSet))
	for i := range intSet {
		f.ints = append(f.ints, i)
	}
	slices.Sort(f.ints)
	f.floats = make([]float64, 0, len(floatSet))
	for fl := range floatSet {
		f.floats = append(f.floats, fl)
	}
	slices.SortFunc(f.floats, cmpFloat)
	f.files = make([]fileRef, 0, len(fileSet))
	for fr := range fileSet {
		f.files = append(f.files, fr)
	}
	slices.SortFunc(f.files, cmpFile)
	if f.overCapacity() {
		return nil
	}

	// Arena index maps, used only during the freeze.
	strIdx := sliceIndex(f.strs)
	urlIdx := sliceIndex(f.urls)
	intIdx := make(map[int64]uint32, len(f.ints))
	for i, v := range f.ints {
		intIdx[v] = uint32(i)
	}
	floatIdx := make(map[float64]uint32, len(f.floats))
	for i, v := range f.floats {
		floatIdx[v] = uint32(i)
	}
	fileIdx := make(map[fileRef]uint32, len(f.files))
	for i, v := range f.files {
		fileIdx[v] = uint32(i)
	}
	ref := func(v Value) uint32 {
		switch v.kind {
		case KindNode:
			return packRef(KindNode, f.nodeOf[v.oid])
		case KindString:
			return packRef(KindString, strIdx[v.str])
		case KindURL:
			return packRef(KindURL, urlIdx[v.str])
		case KindInt:
			return packRef(KindInt, intIdx[v.i64])
		case KindFloat:
			return packRef(KindFloat, floatIdx[v.f64])
		case KindBool:
			return packRef(KindBool, uint32(v.i64))
		case KindFile:
			return packRef(KindFile, fileIdx[fileRef{ft: v.ft, path: v.str}])
		}
		return packRef(KindNull, 0)
	}

	// Out CSR: per node, edges sorted by (label, target key) — exactly
	// the mutable Out() order.
	nEdges := g.edgeCount
	f.outOff = make([]uint32, len(f.nodes)+1)
	f.outLbl = make([]uint32, 0, nEdges)
	f.outTo = make([]uint32, 0, nEdges)
	var scratch []Edge
	for i, oid := range f.nodes {
		f.outOff[i] = uint32(len(f.outLbl))
		scratch = scratch[:0]
		if ri, ok := g.nodes[oid]; ok {
			scratch = append(scratch, g.recs[ri].out...)
		}
		slices.SortFunc(scratch, cmpOutEdge)
		for _, e := range scratch {
			f.outLbl = append(f.outLbl, f.labelOf[e.Label])
			f.outTo = append(f.outTo, ref(e.To))
		}
	}
	f.outOff[len(f.nodes)] = uint32(len(f.outLbl))

	f.buildDerived()

	// Collections as sorted node-id slices.
	f.collNames = make([]string, 0, len(g.collections))
	for name := range g.collections {
		f.collNames = append(f.collNames, name)
	}
	sort.Strings(f.collNames)
	f.collOf = make(map[string]uint32, len(f.collNames))
	f.collMembers = make([][]uint32, len(f.collNames))
	for i, name := range f.collNames {
		f.collOf[name] = uint32(i)
		members := g.collections[name]
		ids := make([]uint32, 0, len(members))
		for _, m := range members {
			if nid, ok := f.nodeOf[m]; ok {
				ids = append(ids, nid)
			}
		}
		slices.Sort(ids)
		f.collMembers[i] = ids
	}
	return f
}

// buildDerived computes the label-extent CSR, the in-adjacency CSR, and
// the per-label statistics from the out CSR and the dictionaries. Both
// Freeze and the SGB2 decoder use it: the binary format ships only the
// primary layout, and the derived structures rebuild in linear passes
// (no sorting of edges, no re-interning).
func (f *Frozen) buildDerived() {
	// Label CSR: counting sort of the out CSR by label, preserving
	// source order within each label.
	f.lblOff = make([]uint32, len(f.labels)+1)
	for _, lid := range f.outLbl {
		f.lblOff[lid+1]++
	}
	for i := 1; i <= len(f.labels); i++ {
		f.lblOff[i] += f.lblOff[i-1]
	}
	f.lblFrom = make([]uint32, len(f.outLbl))
	f.lblTo = make([]uint32, len(f.outLbl))
	cursor := append([]uint32(nil), f.lblOff[:len(f.labels)]...)
	for nid := range f.nodes {
		for p := f.outOff[nid]; p < f.outOff[nid+1]; p++ {
			lid := f.outLbl[p]
			c := cursor[lid]
			f.lblFrom[c] = uint32(nid)
			f.lblTo[c] = f.outTo[p]
			cursor[lid] = c + 1
		}
	}

	// In CSR over distinct targets, numbered in order of first sight in
	// the label CSR. Filling from the label CSR in label order makes each
	// target's in-list arrive sorted by (label, source).
	base, total := f.valueIDs()
	tidOf := make([]uint32, total) // dense value id → tid+1, 0 = unseen
	var tidRef []uint32            // tid → vref
	var counts []uint32
	for _, r := range f.lblTo {
		v := base[r>>vrefShift] + r&vrefMask
		if tidOf[v] == 0 {
			tidRef = append(tidRef, r)
			counts = append(counts, 0)
			tidOf[v] = uint32(len(counts))
		}
		counts[tidOf[v]-1]++
	}
	f.inOff = make([]uint32, len(counts)+1)
	for i, c := range counts {
		f.inOff[i+1] = f.inOff[i] + c
	}
	f.inFrom = make([]uint32, len(f.lblTo))
	f.inLbl = make([]uint32, len(f.lblTo))
	inCursor := counts[:0]
	inCursor = append(inCursor, f.inOff[:len(tidRef)]...)
	for lid := range f.labels {
		for p := f.lblOff[lid]; p < f.lblOff[lid+1]; p++ {
			r := f.lblTo[p]
			tid := tidOf[base[r>>vrefShift]+r&vrefMask] - 1
			c := inCursor[tid]
			f.inFrom[c] = f.lblFrom[p]
			f.inLbl[c] = uint32(lid)
			inCursor[tid] = c + 1
		}
	}
	f.inTid = make(map[Value]uint32, len(tidRef))
	for tid, r := range tidRef {
		f.inTid[f.value(r)] = uint32(tid)
	}

	// Per-label distinct-source/target statistics, precomputed so the
	// planner's LabelStats is O(1) against a snapshot. A target counts
	// once per label: seen marks it with the last label it was counted
	// under (the tidOf array, reused).
	f.stats = make([]frozenStat, len(f.labels))
	seen := tidOf
	clear(seen)
	for lid := range f.labels {
		lo, hi := f.lblOff[lid], f.lblOff[lid+1]
		var st frozenStat
		for p := lo; p < hi; p++ {
			if p == lo || f.lblFrom[p] != f.lblFrom[p-1] {
				st.sources++
			}
			r := f.lblTo[p]
			if v := base[r>>vrefShift] + r&vrefMask; seen[v] != uint32(lid)+1 {
				seen[v] = uint32(lid) + 1
				st.targets++
			}
		}
		f.stats[lid] = st
	}
}

// overCapacity reports whether a dictionary or arena has more entries
// than a packed id can address.
func (f *Frozen) overCapacity() bool {
	for _, n := range []int{len(f.nodes), len(f.labels), len(f.strs), len(f.urls),
		len(f.ints), len(f.floats), len(f.files)} {
		if n > int(vrefMask) {
			return true
		}
	}
	return false
}

// valueIDs numbers every value a vref can denote densely: kind k's
// arena entry i is value id base[k]+i, and total counts them all.
func (f *Frozen) valueIDs() (base [KindFile + 1]uint32, total uint32) {
	for k := KindNull; k <= KindFile; k++ {
		base[k] = total
		total += uint32(f.arenaLen(k))
	}
	return base, total
}

// arenaLen returns how many values of kind k a vref can denote.
func (f *Frozen) arenaLen(k Kind) int {
	switch k {
	case KindNull:
		return 1
	case KindNode:
		return len(f.nodes)
	case KindString:
		return len(f.strs)
	case KindURL:
		return len(f.urls)
	case KindInt:
		return len(f.ints)
	case KindFloat:
		return len(f.floats)
	case KindBool:
		return 2
	case KindFile:
		return len(f.files)
	}
	return 0
}

// cmpOutEdge orders a node's out-edges as the snapshot stores them: by
// label, then target key.
func cmpOutEdge(a, b Edge) int {
	if c := strings.Compare(a.Label, b.Label); c != 0 {
		return c
	}
	return KeyCompare(a.To, b.To)
}

// cmpFloat orders the float arena: by bit pattern.
func cmpFloat(a, b float64) int { return cmp.Compare(math.Float64bits(a), math.Float64bits(b)) }

// cmpFile orders the file arena: by type, then path.
func cmpFile(a, b fileRef) int {
	if a.ft != b.ft {
		return cmp.Compare(a.ft, b.ft)
	}
	return strings.Compare(a.path, b.path)
}

func sortedStringSet(set map[string]struct{}) []string {
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}

func sliceIndex(ss []string) map[string]uint32 {
	idx := make(map[string]uint32, len(ss))
	for i, s := range ss {
		idx[s] = uint32(i)
	}
	return idx
}

// --- read API (mirrors Graph / struql.Source accessors) ---

// NumNodes returns the node count.
func (f *Frozen) NumNodes() int { return len(f.nodes) }

// NumEdges returns the edge count.
func (f *Frozen) NumEdges() int { return len(f.outLbl) }

// HasNode reports whether the node exists.
func (f *Frozen) HasNode(oid OID) bool {
	_, ok := f.nodeOf[oid]
	return ok
}

// Nodes returns all node OIDs, sorted. The slice is fresh.
func (f *Frozen) Nodes() []OID { return append([]OID(nil), f.nodes...) }

// NodeAt returns the i-th node OID in sorted order.
func (f *Frozen) NodeAt(i int) OID { return f.nodes[i] }

// Labels returns every distinct edge label, sorted. The slice is fresh.
func (f *Frozen) Labels() []string { return append([]string(nil), f.labels...) }

// LabelCount returns the number of edges carrying the label.
func (f *Frozen) LabelCount(label string) int {
	lid, ok := f.labelOf[label]
	if !ok {
		return 0
	}
	return int(f.lblOff[lid+1] - f.lblOff[lid])
}

// LabelStats returns one label's edge count and distinct source/target
// counts from the precomputed snapshot statistics.
func (f *Frozen) LabelStats(label string) (count, sources, targets int) {
	lid, ok := f.labelOf[label]
	if !ok {
		return 0, 0, 0
	}
	st := f.stats[lid]
	return int(f.lblOff[lid+1] - f.lblOff[lid]), int(st.sources), int(st.targets)
}

// outRange returns the [lo,hi) out-edge range of a node, or ok=false.
func (f *Frozen) outRange(oid OID) (lo, hi uint32, ok bool) {
	nid, found := f.nodeOf[oid]
	if !found {
		return 0, 0, false
	}
	return f.outOff[nid], f.outOff[nid+1], true
}

// labelRange narrows an out-edge range to one label by binary search.
func (f *Frozen) labelRange(lo, hi, lid uint32) (uint32, uint32) {
	sub := f.outLbl[lo:hi]
	a := uint32(sort.Search(len(sub), func(i int) bool { return sub[i] >= lid }))
	b := uint32(sort.Search(len(sub), func(i int) bool { return sub[i] > lid }))
	return lo + a, lo + b
}

// ForEachOut visits the node's out-edges in (label, target key) order;
// fn returning false stops the walk.
func (f *Frozen) ForEachOut(oid OID, fn func(label string, to Value) bool) {
	lo, hi, ok := f.outRange(oid)
	if !ok {
		return
	}
	for p := lo; p < hi; p++ {
		if !fn(f.labels[f.outLbl[p]], f.value(f.outTo[p])) {
			return
		}
	}
}

// ForEachOutLabel visits the values of the node's edges under one label,
// in target-key order.
func (f *Frozen) ForEachOutLabel(oid OID, label string, fn func(to Value) bool) {
	lid, ok := f.labelOf[label]
	if !ok {
		return
	}
	lo, hi, found := f.outRange(oid)
	if !found {
		return
	}
	lo, hi = f.labelRange(lo, hi, lid)
	for p := lo; p < hi; p++ {
		if !fn(f.value(f.outTo[p])) {
			return
		}
	}
}

// Out returns the node's out-edges, sorted by (label, target key). The
// slice is fresh.
func (f *Frozen) Out(oid OID) []Edge {
	lo, hi, ok := f.outRange(oid)
	if !ok || lo == hi {
		return nil
	}
	out := make([]Edge, 0, hi-lo)
	for p := lo; p < hi; p++ {
		out = append(out, Edge{From: oid, Label: f.labels[f.outLbl[p]], To: f.value(f.outTo[p])})
	}
	return out
}

// OutLabel returns the values of the node's edges under one label,
// sorted by key. The slice is fresh.
func (f *Frozen) OutLabel(oid OID, label string) []Value {
	var out []Value
	f.ForEachOutLabel(oid, label, func(to Value) bool {
		out = append(out, to)
		return true
	})
	return out
}

// First returns the first value of the node's attribute, or Null.
func (f *Frozen) First(oid OID, label string) Value {
	first := Null
	f.ForEachOutLabel(oid, label, func(to Value) bool {
		first = to
		return false
	})
	return first
}

// ForEachLabeled visits every edge carrying the label, grouped by
// source node in ascending order.
func (f *Frozen) ForEachLabeled(label string, fn func(from OID, to Value) bool) {
	lid, ok := f.labelOf[label]
	if !ok {
		return
	}
	for p := f.lblOff[lid]; p < f.lblOff[lid+1]; p++ {
		if !fn(f.nodes[f.lblFrom[p]], f.value(f.lblTo[p])) {
			return
		}
	}
}

// EdgesLabeled returns every edge carrying the label. The slice is fresh.
func (f *Frozen) EdgesLabeled(label string) []Edge {
	lid, ok := f.labelOf[label]
	if !ok {
		return nil
	}
	lo, hi := f.lblOff[lid], f.lblOff[lid+1]
	out := make([]Edge, 0, hi-lo)
	for p := lo; p < hi; p++ {
		out = append(out, Edge{From: f.nodes[f.lblFrom[p]], Label: label, To: f.value(f.lblTo[p])})
	}
	return out
}

// inRange returns the in-edge range of a target value, or ok=false.
func (f *Frozen) inRange(v Value) (lo, hi uint32, ok bool) {
	tid, found := f.inTid[v]
	if !found {
		return 0, 0, false
	}
	return f.inOff[tid], f.inOff[tid+1], true
}

// ForEachIn visits every edge targeting v, in (label, source) order.
func (f *Frozen) ForEachIn(v Value, fn func(from OID, label string) bool) {
	lo, hi, ok := f.inRange(v)
	if !ok {
		return
	}
	for p := lo; p < hi; p++ {
		if !fn(f.nodes[f.inFrom[p]], f.labels[f.inLbl[p]]) {
			return
		}
	}
}

// ForEachInLabel visits the sources of edges targeting v under one
// label, in ascending source order, via binary search on the in-list.
func (f *Frozen) ForEachInLabel(v Value, label string, fn func(from OID) bool) {
	lid, ok := f.labelOf[label]
	if !ok {
		return
	}
	lo, hi, found := f.inRange(v)
	if !found {
		return
	}
	sub := f.inLbl[lo:hi]
	a := uint32(sort.Search(len(sub), func(i int) bool { return sub[i] >= lid }))
	b := uint32(sort.Search(len(sub), func(i int) bool { return sub[i] > lid }))
	for p := lo + a; p < lo+b; p++ {
		if !fn(f.nodes[f.inFrom[p]]) {
			return
		}
	}
}

// In returns every edge targeting v. The slice is fresh.
func (f *Frozen) In(v Value) []Edge {
	lo, hi, ok := f.inRange(v)
	if !ok || lo == hi {
		return nil
	}
	out := make([]Edge, 0, hi-lo)
	for p := lo; p < hi; p++ {
		out = append(out, Edge{From: f.nodes[f.inFrom[p]], Label: f.labels[f.inLbl[p]], To: v})
	}
	return out
}

// CollectionNames returns all collection names, sorted. Fresh slice.
func (f *Frozen) CollectionNames() []string { return append([]string(nil), f.collNames...) }

// CollectionSize returns the member count of a collection.
func (f *Frozen) CollectionSize(name string) int {
	ci, ok := f.collOf[name]
	if !ok {
		return 0
	}
	return len(f.collMembers[ci])
}

// Collection returns the members of a collection, sorted by OID. The
// slice is fresh.
func (f *Frozen) Collection(name string) []OID {
	ci, ok := f.collOf[name]
	if !ok {
		return nil
	}
	ids := f.collMembers[ci]
	out := make([]OID, len(ids))
	for i, nid := range ids {
		out[i] = f.nodes[nid]
	}
	return out
}

// InCollection reports membership by binary search over the sorted
// member ids.
func (f *Frozen) InCollection(name string, oid OID) bool {
	ci, ok := f.collOf[name]
	if !ok {
		return false
	}
	nid, ok := f.nodeOf[oid]
	if !ok {
		return false
	}
	ids := f.collMembers[ci]
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= nid })
	return i < len(ids) && ids[i] == nid
}

// Stats returns summary statistics of the snapshot.
func (f *Frozen) Stats() Stats {
	return Stats{
		Nodes:       len(f.nodes),
		Edges:       len(f.outLbl),
		Labels:      len(f.labels),
		Collections: len(f.collNames),
	}
}
