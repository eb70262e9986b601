package graph

import (
	"math"
	"sort"
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
// mutation of the Graph is not seen by the snapshot; freeze again.
// repo.Indexed holds one snapshot for the life of an immutable graph.
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

// Freeze builds the compact snapshot of the graph's current state. It
// returns nil when the graph exceeds the packed-id capacity (2^28
// distinct nodes, labels, or atoms per kind) — callers treat nil as
// "no snapshot" and keep the mutable representation.
func (g *Graph) Freeze() *Frozen {
	f := &Frozen{}

	// Nodes, sorted, and their dense ids.
	f.nodes = make([]OID, 0, len(g.nodes))
	for oid := range g.nodes {
		f.nodes = append(f.nodes, oid)
	}
	sort.Slice(f.nodes, func(i, j int) bool { return f.nodes[i] < f.nodes[j] })
	if len(f.nodes) > int(vrefMask) {
		return nil
	}
	f.nodeOf = make(map[OID]uint32, len(f.nodes))
	for i, oid := range f.nodes {
		f.nodeOf[oid] = uint32(i)
	}

	// Collect distinct labels and atom payloads.
	labelDict := NewInterner()
	strSet := map[string]struct{}{}
	urlSet := map[string]struct{}{}
	intSet := map[int64]struct{}{}
	floatSet := map[float64]struct{}{}
	fileSet := map[fileRef]struct{}{}
	for _, rec := range g.nodes {
		for _, e := range g.recs[rec].out {
			labelDict.Intern(e.Label)
			switch e.To.kind {
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
	f.labels = append([]string(nil), labelDict.Strings()...)
	sort.Strings(f.labels)
	f.labelOf = make(map[string]uint32, len(f.labels))
	for i, l := range f.labels {
		f.labelOf[l] = uint32(i)
	}
	f.strs = sortedStringSet(strSet)
	f.urls = sortedStringSet(urlSet)
	for i := range intSet {
		f.ints = append(f.ints, i)
	}
	sort.Slice(f.ints, func(i, j int) bool { return f.ints[i] < f.ints[j] })
	for fl := range floatSet {
		f.floats = append(f.floats, fl)
	}
	sort.Slice(f.floats, func(i, j int) bool {
		return math.Float64bits(f.floats[i]) < math.Float64bits(f.floats[j])
	})
	for fr := range fileSet {
		f.files = append(f.files, fr)
	}
	sort.Slice(f.files, func(i, j int) bool {
		if f.files[i].ft != f.files[j].ft {
			return f.files[i].ft < f.files[j].ft
		}
		return f.files[i].path < f.files[j].path
	})
	if len(f.labels) > int(vrefMask) || len(f.strs) > int(vrefMask) ||
		len(f.urls) > int(vrefMask) || len(f.ints) > int(vrefMask) ||
		len(f.floats) > int(vrefMask) || len(f.files) > int(vrefMask) {
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
		rec := &g.recs[g.nodes[oid]]
		scratch = append(scratch[:0], rec.out...)
		sort.Slice(scratch, func(a, b int) bool {
			if scratch[a].Label != scratch[b].Label {
				return scratch[a].Label < scratch[b].Label
			}
			return KeyCompare(scratch[a].To, scratch[b].To) < 0
		})
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
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
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

	// In CSR over distinct targets. Filling from the label CSR in label
	// order makes each target's in-list arrive sorted by (label, source).
	f.inTid = make(map[Value]uint32)
	tidOf := make(map[uint32]uint32) // vref → tid
	counts := []uint32{}
	for _, r := range f.lblTo {
		if _, ok := tidOf[r]; !ok {
			tidOf[r] = uint32(len(counts))
			counts = append(counts, 0)
		}
		counts[tidOf[r]]++
	}
	f.inOff = make([]uint32, len(counts)+1)
	for i, c := range counts {
		f.inOff[i+1] = f.inOff[i] + c
	}
	f.inFrom = make([]uint32, len(f.lblTo))
	f.inLbl = make([]uint32, len(f.lblTo))
	inCursor := append([]uint32(nil), f.inOff[:len(counts)]...)
	for lid := range f.labels {
		for p := f.lblOff[lid]; p < f.lblOff[lid+1]; p++ {
			tid := tidOf[f.lblTo[p]]
			c := inCursor[tid]
			f.inFrom[c] = f.lblFrom[p]
			f.inLbl[c] = uint32(lid)
			inCursor[tid] = c + 1
		}
	}
	for r, tid := range tidOf {
		f.inTid[f.value(r)] = tid
	}

	// Per-label distinct-source/target statistics, precomputed so the
	// planner's LabelStats is O(1) against a snapshot.
	f.stats = make([]frozenStat, len(f.labels))
	var tscratch []uint32
	for lid := range f.labels {
		lo, hi := f.lblOff[lid], f.lblOff[lid+1]
		var sources uint32
		for p := lo; p < hi; p++ {
			if p == lo || f.lblFrom[p] != f.lblFrom[p-1] {
				sources++
			}
		}
		tscratch = append(tscratch[:0], f.lblTo[lo:hi]...)
		sort.Slice(tscratch, func(i, j int) bool { return tscratch[i] < tscratch[j] })
		var targets uint32
		for i, r := range tscratch {
			if i == 0 || r != tscratch[i-1] {
				targets++
			}
		}
		f.stats[lid] = frozenStat{sources: sources, targets: targets}
	}
}

func sortedStringSet(set map[string]struct{}) []string {
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
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
