package repo

import (
	"errors"
	"fmt"
	"strings"
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

// encodeV2 freezes g and serializes it — what SaveBinary writes.
func encodeV2(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	f := g.Freeze()
	if f == nil {
		t.Fatal("Freeze returned nil")
	}
	return EncodeBinaryFrozen(f)
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
		got, err := DecodeBinaryFrozen(encodeV2(t, g))
		return err == nil && ddl.Print(got) == ddl.Print(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBinaryRejectsCorruptInput(t *testing.T) {
	good := encodeV2(t, allKindsGraph())
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		good[:4],
		good[:len(good)/2],
		append(append([]byte{}, good[:5]...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff),
	}
	for i, c := range cases {
		if _, err := DecodeBinaryFrozen(c); err == nil {
			t.Errorf("case %d: corrupt input accepted", i)
		}
	}
	// Bit-flip fuzzing over the body must never panic.
	for i := 4; i < len(good); i += 7 {
		mut := append([]byte{}, good...)
		mut[i] ^= 0xff
		_, _ = DecodeBinaryFrozen(mut) // error or success, but no panic
	}
}

// TestBinaryRejectsOtherFormats: input that does not start with the
// SGB2 magic — every other SGB version digit, other file types, a
// truncated header — gets a *FormatError naming the magic it found,
// never a panic and never a decode attempt.
func TestBinaryRejectsOtherFormats(t *testing.T) {
	body := encodeV2(t, allKindsGraph())[len(binaryMagic):]
	var inputs [][]byte
	for v := '0'; v <= '9'; v++ {
		if v != '2' {
			magic := append([]byte("SGB"), byte(v))
			inputs = append(inputs, magic, append(magic, body...))
		}
	}
	inputs = append(inputs, nil, []byte("S"), []byte("SGB"), []byte("sgb2"),
		[]byte("PK\x03\x04"), []byte("collection C;\n"), append([]byte("XXXX"), body...))
	for _, in := range inputs {
		f, err := DecodeBinaryFrozen(in)
		var fe *FormatError
		if f != nil || !errors.As(err, &fe) {
			t.Errorf("%q: got %v, %v; want a *FormatError", in, f, err)
			continue
		}
		magic := string(in[:min(len(in), len(binaryMagic))])
		if fe.Magic != magic || !strings.Contains(err.Error(), fmt.Sprintf("%q", magic)) {
			t.Errorf("%q: error %q does not name the magic %q", in, err, magic)
		}
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
	got, err := DecodeBinaryFrozen(bin)
	if err != nil {
		t.Fatal(err)
	}
	if ddl.Print(got) != text {
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
			if _, err := DecodeBinaryFrozen(bin); err != nil {
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
