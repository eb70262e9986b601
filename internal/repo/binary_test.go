package repo

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"strudel/internal/ddl"
	"strudel/internal/graph"
	"strudel/internal/synth"
	"strudel/internal/wrapper/bibtex"
)

func allKindsGraph() *graph.Graph {
	g := graph.New()
	g.AddToCollection("C", "n1")
	g.AddEdge("n1", "s", graph.NewString("text with \x00 and ünïcode"))
	g.AddEdge("n1", "i", graph.NewInt(-42))
	g.AddEdge("n1", "big", graph.NewInt(1<<60))
	g.AddEdge("n1", "f", graph.NewFloat(3.14159))
	g.AddEdge("n1", "bt", graph.NewBool(true))
	g.AddEdge("n1", "bf", graph.NewBool(false))
	g.AddEdge("n1", "u", graph.NewURL("http://example.com"))
	g.AddEdge("n1", "file", graph.NewFile(graph.FilePostScript, "a.ps"))
	g.AddEdge("n1", "ref", graph.NewNode("n2"))
	g.AddNode("lonely")
	g.DeclareCollection("Empty")
	return g
}

// sgb1 returns checked-in SGB1 bytes: the format is decode-only, so its
// decoder is fed by files the last encoder wrote (testdata/sgb1_<name>.sgb
// holds that encoder's output for <name>Graph()).
func sgb1(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "sgb1_"+name+".sgb"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// encodeV2 freezes g and serializes it — what SaveBinary writes.
func encodeV2(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	f := g.Freeze()
	if f == nil {
		t.Fatal("Freeze returned nil")
	}
	return EncodeBinaryFrozen(f)
}

func TestBinaryV1DecodesAllKinds(t *testing.T) {
	g := allKindsGraph()
	got, err := DecodeBinary(sgb1(t, "allkinds"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Dump() != g.Dump() {
		t.Errorf("round trip changed graph:\n--- original\n%s--- decoded\n%s", g.Dump(), got.Dump())
	}
	// The lonely node and empty collection survive too.
	if !got.HasNode("lonely") {
		t.Error("isolated node lost")
	}
	names := got.CollectionNames()
	if len(names) != 2 {
		t.Errorf("collections = %v", names)
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed uint8) bool {
		g := graph.New()
		n := int(seed%20) + 1
		for i := 0; i < n; i++ {
			oid := graph.OID(fmt.Sprintf("n%d", i))
			g.AddEdge(oid, "next", graph.NewNode(graph.OID(fmt.Sprintf("n%d", (i+1)%n))))
			g.AddEdge(oid, "v", graph.NewInt(int64(i)-10))
			if i%2 == 0 {
				g.AddToCollection("Even", oid)
			}
		}
		got, err := DecodeBinary(encodeV2(t, g))
		return err == nil && got.Dump() == g.Dump()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBinaryRejectsCorruptInput(t *testing.T) {
	good := sgb1(t, "allkinds")
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		good[:4],
		good[:len(good)/2],
		append(append([]byte{}, good[:5]...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff),
	}
	for i, c := range cases {
		if _, err := DecodeBinary(c); err == nil {
			t.Errorf("case %d: corrupt input accepted", i)
		}
	}
	// Bit-flip fuzzing over the body must never panic.
	for i := 4; i < len(good); i += 7 {
		mut := append([]byte{}, good...)
		mut[i] ^= 0xff
		_, _ = DecodeBinary(mut) // error or success, but no panic
	}
}

func TestBinarySmallerAndFasterThanText(t *testing.T) {
	g, err := bibtex.Load(synth.Bibliography(300, "bin"), bibtex.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bin := encodeV2(t, g)
	text := ddl.Print(g)
	t.Logf("storage: binary %d bytes, ddl text %d bytes (%.1fx)", len(bin), len(text), float64(len(text))/float64(len(bin)))
	if len(bin) >= len(text) {
		t.Errorf("binary (%d) should be smaller than text (%d)", len(bin), len(text))
	}
	got, err := DecodeBinary(bin)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dump() != g.Dump() {
		t.Error("binary round trip changed the bibliography graph")
	}
}

func BenchmarkBinaryVsText(b *testing.B) {
	g, err := bibtex.Load(synth.Bibliography(1000, "bin"), bibtex.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	bin := encodeV2(b, g)
	text := ddl.Print(g)
	b.Run("encode-binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			encodeV2(b, g)
		}
	})
	b.Run("encode-text", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ddl.Print(g)
		}
	})
	b.Run("decode-binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := DecodeBinary(bin); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-text", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ddl.Parse(text); err != nil {
				b.Fatal(err)
			}
		}
	})
}
