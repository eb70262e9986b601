package repo

import (
	"encoding/binary"
	"strings"
	"testing"

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
	if !strings.HasPrefix(string(data), binaryMagicV2) {
		t.Fatalf("magic = %q", data[:4])
	}
	// DecodeBinary dispatches on the magic and yields the same graph.
	got, err := DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dump() != g.Dump() {
		t.Errorf("SGB2 round trip changed graph:\n--- original\n%s--- decoded\n%s", g.Dump(), got.Dump())
	}
	// DecodeBinaryFrozen gives a queryable snapshot directly.
	f, err := DecodeBinaryFrozen(data)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumNodes() != g.NumNodes() || f.NumEdges() != g.NumEdges() {
		t.Errorf("snapshot sizes: %d/%d want %d/%d", f.NumNodes(), f.NumEdges(), g.NumNodes(), g.NumEdges())
	}
}

// Mixed formats: an SGB1 payload must round-trip through the frozen
// decoder, and an SGB2 payload through the graph decoder, with identical
// contents either way.
func TestBinaryMixedFormats(t *testing.T) {
	v1 := sgb1(t, "allkinds")
	v2 := EncodeBinaryFrozen(freezeAllKinds(t))

	fromV1, err := DecodeBinaryFrozen(v1)
	if err != nil {
		t.Fatal(err)
	}
	fromV2, err := DecodeBinaryFrozen(v2)
	if err != nil {
		t.Fatal(err)
	}
	if fromV1.Thaw().Dump() != fromV2.Thaw().Dump() {
		t.Error("SGB1 and SGB2 decode to different graphs")
	}
	// Re-freezing a thawed SGB2 snapshot re-encodes byte-identically: the
	// format is canonical.
	again := EncodeBinaryFrozen(fromV2.Thaw().Freeze())
	if string(again) != string(v2) {
		t.Error("SGB2 re-encode is not byte-identical")
	}
}

func TestBinaryV2RejectsCorruptInput(t *testing.T) {
	good := EncodeBinaryFrozen(freezeAllKinds(t))
	// Every truncation of the payload must error, never panic.
	for n := len(binaryMagicV2); n < len(good); n++ {
		if _, err := DecodeBinary(good[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Bit-flip fuzzing over the body must never panic.
	for i := len(binaryMagicV2); i < len(good); i++ {
		mut := append([]byte{}, good...)
		mut[i] ^= 0xff
		_, _ = DecodeBinary(mut)
	}
}

// buildV2 assembles a minimal syntactically valid SGB2 payload by hand so
// individual fields can be corrupted precisely.
func buildV2(edit func(section string, b []byte) []byte) []byte {
	id := func(i int) []byte { return binary.AppendUvarint(nil, uint64(i)) }
	var out []byte
	out = append(out, binaryMagicV2...)
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
	if _, err := DecodeBinary(buildV2(nil)); err != nil {
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
		_, err := DecodeBinary(payload)
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
	r.Put("data", g)
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
	if ix.Graph().Dump() != g.Dump() {
		t.Error("SGB2 save/load changed the graph")
	}
	// The loaded Indexed adopts the decoded snapshot: Frozen() must not
	// rebuild it.
	if ix.Frozen() == nil {
		t.Fatal("loaded Indexed has no snapshot")
	}
}
