package repo

import (
	"encoding/binary"
	"fmt"
	"math"

	"strudel/internal/graph"
)

// Binary graph serialization — the "efficient storage representations for
// semistructured data" direction §7 points at. With no schema to
// describe rows, attribute names repeat constantly, so interning them is
// where the compression comes from. Compared with the textual
// data-definition language, the binary form is typically 3–6× smaller
// and an order of magnitude faster to decode (BenchmarkBinaryVsText in
// this package).
//
// SGB2 (EncodeBinaryFrozen) is the only format written. SGB1, the
// string-table-plus-varints format that preceded it, is decode-only:
// files saved by earlier versions still load. Its layout:
//
//	magic "SGB1"
//	stringTable: varint count, then per string varint length + bytes
//	nodes:       varint count, then per node a string-table ref
//	edges:       varint count, then per edge from-ref, label-ref, value
//	collections: varint count, then per collection name-ref,
//	             varint member count, member refs
//
// Values encode as a kind byte followed by a payload: node/string/url/
// file refs into the string table (files also carry a type byte), ints as
// zigzag varints, floats as IEEE-754 bits, bools as 0/1.

const (
	binaryMagic   = "SGB1"
	binaryMagicV2 = "SGB2"
)

// EncodeBinaryFrozen serializes a frozen snapshot in the SGB2 format:
// the magic followed by the snapshot's own binary payload (dictionary,
// typed arenas, out-adjacency CSR, collections — see internal/graph).
// SGB2 files decode straight into a queryable snapshot without
// re-indexing; DecodeBinary accepts both formats.
func EncodeBinaryFrozen(f *graph.Frozen) []byte {
	out := make([]byte, 0, 1<<12)
	out = append(out, binaryMagicV2...)
	return graph.AppendFrozen(out, f)
}

// DecodeBinaryFrozen deserializes either binary format into a frozen
// snapshot: SGB2 directly, SGB1 by decoding the mutable graph and
// freezing it.
func DecodeBinaryFrozen(data []byte) (*graph.Frozen, error) {
	if len(data) >= len(binaryMagicV2) && string(data[:len(binaryMagicV2)]) == binaryMagicV2 {
		return graph.DecodeFrozen(data[len(binaryMagicV2):])
	}
	g, err := DecodeBinary(data)
	if err != nil {
		return nil, err
	}
	f := g.Freeze()
	if f == nil {
		return nil, fmt.Errorf("repo: binary: graph too large to freeze")
	}
	return f, nil
}

// DecodeBinary deserializes a graph from either binary format,
// dispatching on the magic.
func DecodeBinary(data []byte) (*graph.Graph, error) {
	if len(data) >= len(binaryMagicV2) && string(data[:len(binaryMagicV2)]) == binaryMagicV2 {
		f, err := graph.DecodeFrozen(data[len(binaryMagicV2):])
		if err != nil {
			return nil, err
		}
		return f.Thaw(), nil
	}
	d := &binDecoder{data: data}
	if len(data) < len(binaryMagic) || string(data[:len(binaryMagic)]) != binaryMagic {
		return nil, fmt.Errorf("repo: binary: bad magic")
	}
	d.pos = len(binaryMagic)
	nStrings, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	// Every table entry consumes at least one byte of input, so a count
	// beyond the remaining bytes is corrupt; checking before allocating
	// keeps an adversarial count from pre-sizing an enormous slice.
	if nStrings > uint64(len(d.data)-d.pos) {
		return nil, fmt.Errorf("repo: binary: string count %d exceeds input", nStrings)
	}
	strings := make([]string, 0, nStrings)
	for i := uint64(0); i < nStrings; i++ {
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if d.pos+int(n) > len(d.data) {
			return nil, fmt.Errorf("repo: binary: truncated string table")
		}
		strings = append(strings, string(d.data[d.pos:d.pos+int(n)]))
		d.pos += int(n)
	}
	ref := func() (string, error) {
		i, err := d.uvarint()
		if err != nil {
			return "", err
		}
		if i >= uint64(len(strings)) {
			return "", fmt.Errorf("repo: binary: string ref %d out of range", i)
		}
		return strings[i], nil
	}
	g := graph.New()
	nNodes, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nNodes; i++ {
		s, err := ref()
		if err != nil {
			return nil, err
		}
		g.AddNode(graph.OID(s))
	}
	nEdges, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nEdges; i++ {
		from, err := ref()
		if err != nil {
			return nil, err
		}
		label, err := ref()
		if err != nil {
			return nil, err
		}
		v, err := d.readValue(strings)
		if err != nil {
			return nil, err
		}
		g.AddEdge(graph.OID(from), label, v)
	}
	nColls, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nColls; i++ {
		name, err := ref()
		if err != nil {
			return nil, err
		}
		g.DeclareCollection(name)
		nMembers, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		for j := uint64(0); j < nMembers; j++ {
			m, err := ref()
			if err != nil {
				return nil, err
			}
			g.AddToCollection(name, graph.OID(m))
		}
	}
	return g, nil
}

type binDecoder struct {
	data []byte
	pos  int
}

func (d *binDecoder) uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("repo: binary: truncated varint at %d", d.pos)
	}
	d.pos += n
	return x, nil
}

func (d *binDecoder) varint() (int64, error) {
	x, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("repo: binary: truncated varint at %d", d.pos)
	}
	d.pos += n
	return x, nil
}

func (d *binDecoder) readValue(strings []string) (graph.Value, error) {
	if d.pos >= len(d.data) {
		return graph.Null, fmt.Errorf("repo: binary: truncated value")
	}
	kind := graph.Kind(d.data[d.pos])
	d.pos++
	strRef := func() (string, error) {
		i, err := d.uvarint()
		if err != nil {
			return "", err
		}
		if i >= uint64(len(strings)) {
			return "", fmt.Errorf("repo: binary: string ref %d out of range", i)
		}
		return strings[i], nil
	}
	switch kind {
	case graph.KindNode:
		s, err := strRef()
		if err != nil {
			return graph.Null, err
		}
		return graph.NewNode(graph.OID(s)), nil
	case graph.KindString:
		s, err := strRef()
		if err != nil {
			return graph.Null, err
		}
		return graph.NewString(s), nil
	case graph.KindURL:
		s, err := strRef()
		if err != nil {
			return graph.Null, err
		}
		return graph.NewURL(s), nil
	case graph.KindFile:
		if d.pos >= len(d.data) {
			return graph.Null, fmt.Errorf("repo: binary: truncated file type")
		}
		ft := graph.FileType(d.data[d.pos])
		d.pos++
		s, err := strRef()
		if err != nil {
			return graph.Null, err
		}
		return graph.NewFile(ft, s), nil
	case graph.KindInt:
		i, err := d.varint()
		if err != nil {
			return graph.Null, err
		}
		return graph.NewInt(i), nil
	case graph.KindFloat:
		if d.pos+8 > len(d.data) {
			return graph.Null, fmt.Errorf("repo: binary: truncated float")
		}
		bits := binary.LittleEndian.Uint64(d.data[d.pos:])
		d.pos += 8
		return graph.NewFloat(math.Float64frombits(bits)), nil
	case graph.KindBool:
		if d.pos >= len(d.data) {
			return graph.Null, fmt.Errorf("repo: binary: truncated bool")
		}
		b := d.data[d.pos] != 0
		d.pos++
		return graph.NewBool(b), nil
	}
	return graph.Null, fmt.Errorf("repo: binary: unknown value kind %d", kind)
}
