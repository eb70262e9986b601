package repo

import (
	"encoding/binary"
	"strings"
	"testing"

	"strudel/internal/ddl"
	"strudel/internal/graph"
)

func freezeAllKinds(t *testing.T) *graph.Frozen {
	t.Helper()
	f := allKindsGraph().Freeze()
	if f == nil {
		t.Fatal("Freeze returned nil")
	}
	return f
}

func TestBinaryV2RoundTrip(t *testing.T) {
	g := allKindsGraph()
	data := EncodeBinaryFrozen(freezeAllKinds(t))
	if !strings.HasPrefix(string(data), binaryMagic) {
		t.Fatalf("magic = %q", data[:4])
	}
	// DecodeBinaryFrozen gives a queryable snapshot directly, holding
	// every value kind, the isolated node and the empty collection.
	f, err := DecodeBinaryFrozen(data)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumNodes() != g.NumNodes() || f.NumEdges() != g.NumEdges() {
		t.Errorf("snapshot sizes: %d/%d want %d/%d", f.NumNodes(), f.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	if got, want := ddl.Print(f), ddl.Print(g); got != want {
		t.Errorf("SGB2 round trip changed graph:\n--- original\n%s--- decoded\n%s", want, got)
	}
	if !f.HasNode("lonely") {
		t.Error("isolated node lost")
	}
	if names := f.CollectionNames(); len(names) != 2 {
		t.Errorf("collections = %v", names)
	}
	// Re-encoding the decoded snapshot is byte-identical: the format is
	// canonical.
	if again := EncodeBinaryFrozen(f); string(again) != string(data) {
		t.Error("SGB2 re-encode is not byte-identical")
	}
}

func TestBinaryV2RejectsCorruptInput(t *testing.T) {
	good := EncodeBinaryFrozen(freezeAllKinds(t))
	// Every truncation of the payload must error, never panic.
	for n := len(binaryMagic); n < len(good); n++ {
		if _, err := DecodeBinaryFrozen(good[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Bit-flip fuzzing over the body must never panic.
	for i := len(binaryMagic); i < len(good); i++ {
		mut := append([]byte{}, good...)
		mut[i] ^= 0xff
		_, _ = DecodeBinaryFrozen(mut)
	}
}

// buildV2 assembles a minimal syntactically valid SGB2 payload by hand so
// individual fields can be corrupted precisely.
func buildV2(edit func(section string, b []byte) []byte) []byte {
	id := func(i int) []byte { return binary.AppendUvarint(nil, uint64(i)) }
	var out []byte
	out = append(out, binaryMagic...)
	sec := func(name string, b []byte) {
		if edit != nil {
			b = edit(name, b)
		}
		out = append(out, b...)
	}
	// dictionary: "a", "l", "n1", "n2"
	var dict []byte
	dict = append(dict, id(4)...)
	for _, s := range []string{"a", "l", "n1", "n2"} {
		dict = append(dict, id(len(s))...)
		dict = append(dict, s...)
	}
	sec("dict", dict)
	sec("labels", append(id(1), id(1)...))                  // ["l"]
	sec("nodes", append(append(id(2), id(2)...), id(3)...)) // ["n1","n2"]
	sec("strs", append(id(1), id(0)...))                    // ["a"]
	sec("urls", id(0))
	sec("ints", id(0))
	sec("floats", id(0))
	sec("files", id(0))
	// out CSR: n1 has two edges l→"a", l→node n2; n2 has none.
	strRef := int(uint32(graph.KindString) << 28)
	nodeRef := int(uint32(graph.KindNode)<<28 | 1)
	edges := id(2)
	edges = append(edges, id(0)...) // label l
	edges = append(edges, id(nodeRef)...)
	edges = append(edges, id(0)...)
	edges = append(edges, id(strRef)...)
	edges = append(edges, id(0)...) // n2: degree 0
	sec("csr", edges)
	sec("colls", id(0))
	return out
}

func TestBinaryV2DecodeErrorPaths(t *testing.T) {
	// Baseline must decode.
	if _, err := DecodeBinaryFrozen(buildV2(nil)); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	id := func(i int) []byte { return binary.AppendUvarint(nil, uint64(i)) }
	cases := []struct {
		name, section string
		edit          func([]byte) []byte
		wantErr       string
	}{
		{"truncated dictionary", "dict", func(b []byte) []byte {
			// One entry whose declared length overruns the input.
			return append(id(1), id(1000)...)
		}, "truncated"},
		{"truncated string arena", "strs", func(b []byte) []byte { return append(id(2), id(0)...) }, ""},
		{"label ref out of range", "labels", func(b []byte) []byte { return append(id(1), id(9)...) }, "out of range"},
		{"labels unsorted", "labels", func(b []byte) []byte { return append(append(id(2), id(1)...), id(1)...) }, "sorted"},
		{"nodes unsorted", "nodes", func(b []byte) []byte { return append(append(id(2), id(3)...), id(2)...) }, "sorted"},
		{"edge label out of range", "csr", func(b []byte) []byte {
			e := id(2)
			e = append(e, id(7)...) // label id 7: out of range
			e = append(e, id(0)...)
			e = append(e, id(0)...)
			e = append(e, id(0)...)
			return append(e, id(0)...)
		}, "label id 7 out of range"},
		{"edge vref bad kind", "csr", func(b []byte) []byte {
			e := id(1)
			e = append(e, id(0)...)
			e = append(e, id(int(uint32(15)<<28))...) // kind 15: unknown
			return append(e, id(0)...)
		}, "unknown"},
		{"edge vref out of arena", "csr", func(b []byte) []byte {
			e := id(1)
			e = append(e, id(0)...)
			e = append(e, id(int(uint32(graph.KindString)<<28|5))...) // strs has 1 entry
			return append(e, id(0)...)
		}, "out of range"},
		{"collection member out of range", "colls", func(b []byte) []byte {
			c := id(1)
			c = append(c, id(0)...) // name "a"
			c = append(c, id(1)...)
			return append(c, id(9)...) // member id 9: only 2 nodes
		}, "out of range"},
		{"trailing bytes", "colls", func(b []byte) []byte { return append(b, 0) }, "trailing"},
	}
	for _, tc := range cases {
		payload := buildV2(func(section string, b []byte) []byte {
			if section == tc.section {
				return tc.edit(b)
			}
			return b
		})
		_, err := DecodeBinaryFrozen(payload)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestRepositorySaveLoadBinaryV2(t *testing.T) {
	dir := t.TempDir()
	r := NewRepository()
	g := allKindsGraph()
	r.Put("data", g.Freeze())
	if err := r.SaveBinary(dir); err != nil {
		t.Fatal(err)
	}
	r2 := NewRepository()
	if err := r2.LoadBinary(dir); err != nil {
		t.Fatal(err)
	}
	ix := r2.Get("data")
	if ix == nil {
		t.Fatal("graph not loaded")
	}
	if ddl.Print(ix) != ddl.Print(g) {
		t.Error("SGB2 save/load changed the graph")
	}
}
