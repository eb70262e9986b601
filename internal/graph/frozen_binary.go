package graph

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary layout of a frozen snapshot — the payload of the repository's
// SGB2 format (the repo package owns the magic and file handling). The
// format ships the primary layout only: the dictionary, the typed
// arenas, the out-adjacency CSR, and the collections. The derived
// structures (label extents, in-adjacency, statistics) rebuild in linear
// passes on load, so decoding is O(copy) plus one pass over the edges —
// no re-interning, no edge sorting.
//
//	dict:    uvarint count, per entry uvarint length + bytes
//	labels:  uvarint count, per label dict ref (strictly increasing strings)
//	nodes:   uvarint count, per node dict ref (strictly increasing strings)
//	strs:    uvarint count, per atom dict ref (strictly increasing strings)
//	urls:    uvarint count, per atom dict ref (strictly increasing strings)
//	ints:    uvarint count, per atom varint (strictly increasing)
//	floats:  uvarint count, per atom 8-byte LE bits (strictly increasing)
//	files:   uvarint count, per atom type byte + dict ref (strictly increasing)
//	out CSR: per node uvarint degree, then per edge uvarint label id +
//	         uvarint packed value ref, labels non-decreasing per node
//	colls:   uvarint count, per collection dict ref + uvarint member
//	         count + member node ids (strictly increasing)

// AppendFrozen appends the snapshot's binary payload to dst.
func AppendFrozen(dst []byte, f *Frozen) []byte {
	dict := NewInterner()
	for _, l := range f.labels {
		dict.Intern(l)
	}
	for _, n := range f.nodes {
		dict.Intern(string(n))
	}
	for _, s := range f.strs {
		dict.Intern(s)
	}
	for _, u := range f.urls {
		dict.Intern(u)
	}
	for _, fr := range f.files {
		dict.Intern(fr.path)
	}
	for _, c := range f.collNames {
		dict.Intern(c)
	}
	strings := dict.Strings()
	dst = binary.AppendUvarint(dst, uint64(len(strings)))
	for _, s := range strings {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	ref := func(s string) uint64 {
		id, _ := dict.Lookup(s)
		return uint64(id)
	}
	dst = binary.AppendUvarint(dst, uint64(len(f.labels)))
	for _, l := range f.labels {
		dst = binary.AppendUvarint(dst, ref(l))
	}
	dst = binary.AppendUvarint(dst, uint64(len(f.nodes)))
	for _, n := range f.nodes {
		dst = binary.AppendUvarint(dst, ref(string(n)))
	}
	dst = binary.AppendUvarint(dst, uint64(len(f.strs)))
	for _, s := range f.strs {
		dst = binary.AppendUvarint(dst, ref(s))
	}
	dst = binary.AppendUvarint(dst, uint64(len(f.urls)))
	for _, u := range f.urls {
		dst = binary.AppendUvarint(dst, ref(u))
	}
	dst = binary.AppendUvarint(dst, uint64(len(f.ints)))
	for _, i := range f.ints {
		dst = binary.AppendVarint(dst, i)
	}
	dst = binary.AppendUvarint(dst, uint64(len(f.floats)))
	for _, fl := range f.floats {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(fl))
	}
	dst = binary.AppendUvarint(dst, uint64(len(f.files)))
	for _, fr := range f.files {
		dst = append(dst, byte(fr.ft))
		dst = binary.AppendUvarint(dst, ref(fr.path))
	}
	for nid := range f.nodes {
		lo, hi := f.outOff[nid], f.outOff[nid+1]
		dst = binary.AppendUvarint(dst, uint64(hi-lo))
		for p := lo; p < hi; p++ {
			dst = binary.AppendUvarint(dst, uint64(f.outLbl[p]))
			dst = binary.AppendUvarint(dst, uint64(f.outTo[p]))
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(f.collNames)))
	for i, name := range f.collNames {
		dst = binary.AppendUvarint(dst, ref(name))
		dst = binary.AppendUvarint(dst, uint64(len(f.collMembers[i])))
		for _, nid := range f.collMembers[i] {
			dst = binary.AppendUvarint(dst, uint64(nid))
		}
	}
	return dst
}

type frozenDecoder struct {
	data []byte
	pos  int
}

func (d *frozenDecoder) uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("graph: frozen: truncated varint at %d", d.pos)
	}
	d.pos += n
	return x, nil
}

func (d *frozenDecoder) varint() (int64, error) {
	x, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("graph: frozen: truncated varint at %d", d.pos)
	}
	d.pos += n
	return x, nil
}

// count reads a section's entry count, bounding it by the bytes left so
// corrupt headers cannot force huge preallocations.
func (d *frozenDecoder) count(section string) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(d.data)-d.pos) {
		return 0, fmt.Errorf("graph: frozen: %s count %d exceeds remaining input", section, n)
	}
	return int(n), nil
}

// DecodeFrozen parses a payload written by AppendFrozen, validating
// every reference so corrupt input yields an error, never a panic.
func DecodeFrozen(data []byte) (*Frozen, error) {
	d := &frozenDecoder{data: data}
	nDict, err := d.count("dictionary")
	if err != nil {
		return nil, err
	}
	dict := make([]string, 0, nDict)
	for i := 0; i < nDict; i++ {
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(d.data)-d.pos) {
			return nil, fmt.Errorf("graph: frozen: truncated dictionary entry %d", i)
		}
		dict = append(dict, string(d.data[d.pos:d.pos+int(n)]))
		d.pos += int(n)
	}
	ref := func(section string) (string, error) {
		i, err := d.uvarint()
		if err != nil {
			return "", err
		}
		if i >= uint64(len(dict)) {
			return "", fmt.Errorf("graph: frozen: %s dictionary ref %d out of range", section, i)
		}
		return dict[i], nil
	}
	refList := func(section string) ([]string, error) {
		n, err := d.count(section)
		if err != nil {
			return nil, err
		}
		out := make([]string, 0, n)
		for i := 0; i < n; i++ {
			s, err := ref(section)
			if err != nil {
				return nil, err
			}
			if i > 0 && out[i-1] >= s {
				return nil, fmt.Errorf("graph: frozen: %s arena not strictly sorted", section)
			}
			out = append(out, s)
		}
		return out, nil
	}

	f := &Frozen{}
	if f.labels, err = refList("label"); err != nil {
		return nil, err
	}
	nodeStrs, err := refList("node")
	if err != nil {
		return nil, err
	}
	f.nodes = make([]OID, len(nodeStrs))
	for i, s := range nodeStrs {
		f.nodes[i] = OID(s)
	}
	if f.strs, err = refList("string"); err != nil {
		return nil, err
	}
	if f.urls, err = refList("url"); err != nil {
		return nil, err
	}
	nInts, err := d.count("int")
	if err != nil {
		return nil, err
	}
	f.ints = make([]int64, 0, nInts)
	for i := 0; i < nInts; i++ {
		v, err := d.varint()
		if err != nil {
			return nil, err
		}
		if i > 0 && f.ints[i-1] >= v {
			return nil, fmt.Errorf("graph: frozen: int arena not strictly sorted")
		}
		f.ints = append(f.ints, v)
	}
	nFloats, err := d.count("float")
	if err != nil {
		return nil, err
	}
	f.floats = make([]float64, 0, nFloats)
	for i := 0; i < nFloats; i++ {
		if len(d.data)-d.pos < 8 {
			return nil, fmt.Errorf("graph: frozen: truncated float arena")
		}
		bits := binary.LittleEndian.Uint64(d.data[d.pos:])
		d.pos += 8
		if i > 0 && math.Float64bits(f.floats[i-1]) >= bits {
			return nil, fmt.Errorf("graph: frozen: float arena not strictly sorted")
		}
		f.floats = append(f.floats, math.Float64frombits(bits))
	}
	nFiles, err := d.count("file")
	if err != nil {
		return nil, err
	}
	f.files = make([]fileRef, 0, nFiles)
	for i := 0; i < nFiles; i++ {
		if d.pos >= len(d.data) {
			return nil, fmt.Errorf("graph: frozen: truncated file arena")
		}
		ft := FileType(d.data[d.pos])
		d.pos++
		path, err := ref("file")
		if err != nil {
			return nil, err
		}
		fr := fileRef{ft: ft, path: path}
		if i > 0 {
			prev := f.files[i-1]
			if prev.ft > fr.ft || (prev.ft == fr.ft && prev.path >= fr.path) {
				return nil, fmt.Errorf("graph: frozen: file arena not strictly sorted")
			}
		}
		f.files = append(f.files, fr)
	}

	// Rebuild the dictionaries' reverse maps before validating vrefs.
	f.labelOf = make(map[string]uint32, len(f.labels))
	for i, l := range f.labels {
		f.labelOf[l] = uint32(i)
	}
	f.nodeOf = make(map[OID]uint32, len(f.nodes))
	for i, n := range f.nodes {
		f.nodeOf[n] = uint32(i)
	}

	// Out CSR.
	f.outOff = make([]uint32, len(f.nodes)+1)
	for nid := 0; nid < len(f.nodes); nid++ {
		f.outOff[nid] = uint32(len(f.outLbl))
		deg, err := d.count("out-degree")
		if err != nil {
			return nil, err
		}
		prevLbl := uint32(0)
		for i := 0; i < deg; i++ {
			lbl, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if lbl >= uint64(len(f.labels)) {
				return nil, fmt.Errorf("graph: frozen: edge label id %d out of range", lbl)
			}
			if i > 0 && uint32(lbl) < prevLbl {
				return nil, fmt.Errorf("graph: frozen: node %d out-edges not sorted by label", nid)
			}
			prevLbl = uint32(lbl)
			to, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			vr := uint32(to)
			if uint64(vr) != to {
				return nil, fmt.Errorf("graph: frozen: value ref %d out of range", to)
			}
			k := Kind(vr >> vrefShift)
			if k > KindFile {
				return nil, fmt.Errorf("graph: frozen: value ref kind %d unknown", k)
			}
			if int(vr&vrefMask) >= f.arenaLen(k) {
				return nil, fmt.Errorf("graph: frozen: %s value ref %d out of range", k, vr&vrefMask)
			}
			f.outLbl = append(f.outLbl, uint32(lbl))
			f.outTo = append(f.outTo, vr)
		}
	}
	f.outOff[len(f.nodes)] = uint32(len(f.outLbl))

	// Collections.
	nColls, err := d.count("collection")
	if err != nil {
		return nil, err
	}
	f.collNames = make([]string, 0, nColls)
	f.collMembers = make([][]uint32, 0, nColls)
	f.collOf = make(map[string]uint32, nColls)
	for i := 0; i < nColls; i++ {
		name, err := ref("collection")
		if err != nil {
			return nil, err
		}
		if i > 0 && f.collNames[i-1] >= name {
			return nil, fmt.Errorf("graph: frozen: collections not strictly sorted")
		}
		nMembers, err := d.count("member")
		if err != nil {
			return nil, err
		}
		members := make([]uint32, 0, nMembers)
		for j := 0; j < nMembers; j++ {
			nid, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if nid >= uint64(len(f.nodes)) {
				return nil, fmt.Errorf("graph: frozen: collection member id %d out of range", nid)
			}
			if j > 0 && members[j-1] >= uint32(nid) {
				return nil, fmt.Errorf("graph: frozen: collection %s members not strictly sorted", name)
			}
			members = append(members, uint32(nid))
		}
		f.collNames = append(f.collNames, name)
		f.collMembers = append(f.collMembers, members)
		f.collOf[name] = uint32(i)
	}
	if d.pos != len(d.data) {
		return nil, fmt.Errorf("graph: frozen: %d trailing bytes", len(d.data)-d.pos)
	}

	f.buildDerived()
	return f, nil
}
