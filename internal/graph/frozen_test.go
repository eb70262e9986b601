package graph

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// richGraph builds a graph exercising every value kind, multi-valued
// attributes, shared targets, and collections.
func richGraph() *Graph {
	g := New()
	for i := 0; i < 8; i++ {
		oid := OID(fmt.Sprintf("n%d", i))
		g.AddNode(oid)
		g.AddEdge(oid, "title", NewString(fmt.Sprintf("Title %d", i)))
		g.AddEdge(oid, "rank", NewInt(int64(i%3)))
		g.AddEdge(oid, "score", NewFloat(float64(i)/3))
		g.AddEdge(oid, "hot", NewBool(i%2 == 0))
		g.AddEdge(oid, "home", NewURL(fmt.Sprintf("http://x/%d", i%4)))
		g.AddEdge(oid, "src", NewFile(FileHTML, fmt.Sprintf("p%d.html", i%2)))
		g.AddEdge(oid, "next", NewNode(OID(fmt.Sprintf("n%d", (i+1)%8))))
		if i%2 == 0 {
			g.AddEdge(oid, "tag", NewString("even"))
			g.AddEdge(oid, "tag", NewString("zero"))
		}
	}
	g.AddEdge("n0", "nothing", Null)
	g.AddNode("island")
	g.DeclareCollection("Empty")
	g.AddToCollection("Evens", "n0")
	g.AddToCollection("Evens", "n2")
	g.AddToCollection("Evens", "n4")
	g.AddToCollection("All", "n3")
	g.AddToCollection("All", "n1")
	g.AddToCollection("All", "n0")
	return g
}

// TestFrozenMatchesGraph compares the snapshot with the graph it was
// frozen from, method by method, and the snapshot its SGB2 payload
// decodes to the same way.
func TestFrozenMatchesGraph(t *testing.T) {
	g := richGraph()
	f := g.Freeze()
	if f == nil {
		t.Fatal("Freeze returned nil")
	}
	assertFrozenMatches(t, f, g)
	decoded, err := DecodeFrozen(AppendFrozen(nil, f))
	if err != nil {
		t.Fatalf("DecodeFrozen: %v", err)
	}
	assertFrozenMatches(t, decoded, g)
}

// assertFrozenMatches checks every read of f against the same read of g.
func assertFrozenMatches(t *testing.T, f *Frozen, g *Graph) {
	t.Helper()
	if f.NumNodes() != g.NumNodes() || f.NumEdges() != g.NumEdges() {
		t.Fatalf("size mismatch: frozen %d/%d graph %d/%d",
			f.NumNodes(), f.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	if !reflect.DeepEqual(f.Nodes(), g.Nodes()) {
		t.Fatalf("Nodes mismatch:\n%v\n%v", f.Nodes(), g.Nodes())
	}
	if !reflect.DeepEqual(f.Labels(), g.Labels()) {
		t.Fatalf("Labels mismatch:\n%v\n%v", f.Labels(), g.Labels())
	}
	for _, oid := range g.Nodes() {
		if !f.HasNode(oid) {
			t.Fatalf("HasNode(%s) = false", oid)
		}
		fo, go_ := f.Out(oid), g.Out(oid)
		if len(fo) != len(go_) || (len(fo) > 0 && !reflect.DeepEqual(fo, go_)) {
			t.Fatalf("Out(%s) mismatch:\n%v\n%v", oid, fo, go_)
		}
		for _, label := range g.Labels() {
			fv, gv := f.OutLabel(oid, label), g.OutLabel(oid, label)
			if len(fv) == 0 && len(gv) == 0 {
				continue
			}
			if !reflect.DeepEqual(fv, gv) {
				t.Fatalf("OutLabel(%s,%s) mismatch:\n%v\n%v", oid, label, fv, gv)
			}
			if !f.First(oid, label).Equal(g.First(oid, label)) {
				t.Fatalf("First(%s,%s) mismatch", oid, label)
			}
		}
	}
	if f.HasNode("missing") || len(f.Out("missing")) != 0 {
		t.Fatal("missing node should have no edges")
	}
	labelCounts := map[string]int{}
	for _, e := range g.AllEdges() {
		labelCounts[e.Label]++
	}
	for _, label := range g.Labels() {
		fe := f.EdgesLabeled(label)
		if len(fe) != labelCounts[label] || f.LabelCount(label) != labelCounts[label] {
			t.Fatalf("EdgesLabeled(%s) count mismatch", label)
		}
		count, sources, targets := f.LabelStats(label)
		srcSet := map[OID]struct{}{}
		tgtSet := map[string]struct{}{}
		for _, e := range fe {
			srcSet[e.From] = struct{}{}
			tgtSet[e.To.Key()] = struct{}{}
		}
		if count != len(fe) || sources != len(srcSet) || targets != len(tgtSet) {
			t.Fatalf("LabelStats(%s) = %d,%d,%d want %d,%d,%d",
				label, count, sources, targets, len(fe), len(srcSet), len(tgtSet))
		}
	}
	// In-adjacency: every edge must appear in its target's in-list, and
	// the total must balance.
	inTotal := 0
	for _, oid := range g.Nodes() {
		for _, e := range g.Out(oid) {
			found := false
			f.ForEachIn(e.To, func(from OID, label string) bool {
				if from == e.From && label == e.Label {
					found = true
					return false
				}
				return true
			})
			if !found {
				t.Fatalf("edge %v missing from in-list", e)
			}
		}
		inTotal += len(g.Out(oid))
	}
	got := 0
	seen := map[string]struct{}{}
	for _, oid := range g.Nodes() {
		for _, e := range g.Out(oid) {
			seen[e.To.Key()] = struct{}{}
		}
	}
	for k := range seen {
		_ = k
	}
	for _, oid := range g.Nodes() {
		for _, e := range g.Out(oid) {
			_ = e
			got++
		}
	}
	if got != inTotal {
		t.Fatalf("edge totals diverge: %d vs %d", got, inTotal)
	}
	// ForEachInLabel agrees with a filtered ForEachIn.
	target := NewNode("n1")
	var viaLabel, viaFilter []OID
	f.ForEachInLabel(target, "next", func(from OID) bool {
		viaLabel = append(viaLabel, from)
		return true
	})
	f.ForEachIn(target, func(from OID, label string) bool {
		if label == "next" {
			viaFilter = append(viaFilter, from)
		}
		return true
	})
	if !reflect.DeepEqual(viaLabel, viaFilter) {
		t.Fatalf("ForEachInLabel mismatch: %v vs %v", viaLabel, viaFilter)
	}
	if got := f.In(NewString("even")); len(got) != 4 {
		t.Fatalf("In(even) = %d edges, want 4", len(got))
	}
	// Collections.
	if !reflect.DeepEqual(f.CollectionNames(), g.CollectionNames()) {
		t.Fatalf("CollectionNames mismatch: %v vs %v", f.CollectionNames(), g.CollectionNames())
	}
	for _, name := range g.CollectionNames() {
		want := g.Collection(name)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if !reflect.DeepEqual(f.Collection(name), want) {
			t.Fatalf("Collection(%s) mismatch: %v vs %v", name, f.Collection(name), want)
		}
		if f.CollectionSize(name) != g.CollectionSize(name) {
			t.Fatalf("CollectionSize(%s) mismatch", name)
		}
		for _, m := range want {
			if !f.InCollection(name, m) {
				t.Fatalf("InCollection(%s,%s) = false", name, m)
			}
		}
	}
	if f.InCollection("Evens", "n1") || f.InCollection("Nope", "n0") {
		t.Fatal("InCollection false positives")
	}
	if f.Stats() != g.Stats() {
		t.Fatalf("Stats mismatch: %+v vs %+v", f.Stats(), g.Stats())
	}
}

func TestFrozenBinaryRoundTrip(t *testing.T) {
	g := richGraph()
	f := g.Freeze()
	payload := AppendFrozen(nil, f)
	f2, err := DecodeFrozen(payload)
	if err != nil {
		t.Fatalf("DecodeFrozen: %v", err)
	}
	assertFrozenMatches(t, f2, g)
	// Re-encoding the decoded snapshot must be byte-identical: the format
	// is canonical.
	payload2 := AppendFrozen(nil, f2)
	if string(payload) != string(payload2) {
		t.Fatal("re-encoded payload differs")
	}
	// Derived structures must match too.
	count, sources, targets := f.LabelStats("next")
	c2, s2, t2 := f2.LabelStats("next")
	if count != c2 || sources != s2 || targets != t2 {
		t.Fatal("decoded LabelStats differ")
	}
}

func TestFrozenBinaryEmpty(t *testing.T) {
	f := New().Freeze()
	payload := AppendFrozen(nil, f)
	f2, err := DecodeFrozen(payload)
	if err != nil {
		t.Fatalf("DecodeFrozen(empty): %v", err)
	}
	if f2.NumNodes() != 0 || f2.NumEdges() != 0 {
		t.Fatal("empty snapshot not empty after round trip")
	}
}

func TestDecodeFrozenTruncated(t *testing.T) {
	payload := AppendFrozen(nil, richGraph().Freeze())
	for n := 0; n < len(payload); n++ {
		if _, err := DecodeFrozen(payload[:n]); err == nil {
			t.Fatalf("DecodeFrozen accepted truncation at %d bytes", n)
		}
	}
}

func TestDecodeFrozenCorrupt(t *testing.T) {
	payload := AppendFrozen(nil, richGraph().Freeze())
	// Flipping any single byte must never panic; it may still decode when
	// the flip lands in string payload bytes.
	for i := range payload {
		mutated := append([]byte(nil), payload...)
		mutated[i] ^= 0xff
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("DecodeFrozen panicked on byte %d: %v", i, r)
				}
			}()
			_, _ = DecodeFrozen(mutated)
		}()
	}
	if _, err := DecodeFrozen(append(payload, 0)); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing bytes not rejected: %v", err)
	}
}

func TestFreezeOfEmptyAndMutatedGraph(t *testing.T) {
	g := New()
	f := g.Freeze()
	if f == nil || f.NumNodes() != 0 || f.NumEdges() != 0 || len(f.Labels()) != 0 {
		t.Fatal("empty freeze broken")
	}
	g.AddEdge("a", "l", NewNode("b"))
	g.RemoveNode("b")
	f = g.Freeze()
	// The dangling edge target still appears as a value, but only "a"
	// remains a node.
	if f.NumNodes() != 1 || f.NumEdges() != 1 {
		t.Fatalf("post-removal freeze: %d nodes %d edges", f.NumNodes(), f.NumEdges())
	}
}

func TestKeyCompareMatchesKeyStrings(t *testing.T) {
	vals := []Value{
		Null,
		NewNode("a"), NewNode("b"), NewNode(""),
		NewString(""), NewString("a"), NewString("a\x00b"), NewString("ab"),
		NewInt(0), NewInt(9), NewInt(10), NewInt(-3), NewInt(math.MaxInt64), NewInt(math.MinInt64),
		NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(1.5), NewFloat(-1.5),
		NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(math.NaN()),
		NewBool(true), NewBool(false),
		NewURL("http://a"), NewURL("http://b"),
		NewFile(FileHTML, "x"), NewFile(FileImage, "x"), NewFile(FileHTML, "y"),
	}
	for _, a := range vals {
		for _, b := range vals {
			want := strings.Compare(a.Key(), b.Key())
			if got := KeyCompare(a, b); got != want {
				t.Fatalf("KeyCompare(%v, %v) = %d, want %d (keys %q %q)",
					a, b, got, want, a.Key(), b.Key())
			}
			if got := string(AppendKey(nil, a)); got != a.Key() {
				t.Fatalf("AppendKey(%v) = %q, want %q", a, got, a.Key())
			}
		}
	}
}

func TestAddEdgesAndCapacity(t *testing.T) {
	g := NewWithCapacity(4, 8)
	added := g.AddEdges([]Edge{
		{From: "a", Label: "l", To: NewInt(1)},
		{From: "a", Label: "l", To: NewInt(1)}, // duplicate
		{From: "b", Label: "m", To: NewNode("a")},
	})
	if added != 2 {
		t.Fatalf("AddEdges = %d, want 2", added)
	}
	if g.NumEdges() != 2 || g.NumNodes() != 2 {
		t.Fatalf("graph has %d edges %d nodes", g.NumEdges(), g.NumNodes())
	}
	if !g.HasEdge("a", "l", NewInt(1)) || !g.HasEdge("b", "m", NewNode("a")) {
		t.Fatal("edges missing after AddEdges")
	}
}
