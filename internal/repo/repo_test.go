package repo

import (
	"fmt"
	"testing"
	"testing/quick"

	"strudel/internal/ddl"
	"strudel/internal/graph"
)

func sampleGraph() *graph.Graph {
	g := graph.New()
	g.AddToCollection("Publications", "pub1")
	g.AddToCollection("Publications", "pub2")
	g.AddEdge("pub1", "title", graph.NewString("Strudel"))
	g.AddEdge("pub1", "year", graph.NewInt(1997))
	g.AddEdge("pub2", "title", graph.NewString("Boat"))
	g.AddEdge("pub2", "year", graph.NewInt(1998))
	g.AddEdge("pub1", "related", graph.NewNode("pub2"))
	return g
}

func TestIndexedEdgesLabeled(t *testing.T) {
	ix := NewIndexed(sampleGraph())
	titles := ix.EdgesLabeled("title")
	if len(titles) != 2 {
		t.Fatalf("title edges = %d, want 2", len(titles))
	}
	if n := len(ix.EdgesLabeled("nosuch")); n != 0 {
		t.Errorf("nosuch edges = %d", n)
	}
	if ix.LabelCount("year") != 2 {
		t.Errorf("LabelCount(year) = %d", ix.LabelCount("year"))
	}
}

func TestIndexedValueIndexIsGlobal(t *testing.T) {
	// §2.1: indexes on atomic values are global to the graph, not per
	// collection or attribute.
	g := sampleGraph()
	g.AddEdge("pub2", "revised", graph.NewInt(1997)) // same atom, different attribute
	ix := NewIndexed(g)
	hits := ix.In(graph.NewInt(1997))
	if len(hits) != 2 {
		t.Fatalf("In(1997) = %d edges, want 2 (global index)", len(hits))
	}
	labels := map[string]bool{}
	for _, e := range hits {
		labels[e.Label] = true
	}
	if !labels["year"] || !labels["revised"] {
		t.Errorf("In(1997) labels = %v", labels)
	}
}

func TestIndexedInEdgesForNodes(t *testing.T) {
	ix := NewIndexed(sampleGraph())
	in := ix.In(graph.NewNode("pub2"))
	if len(in) != 1 || in[0].From != "pub1" || in[0].Label != "related" {
		t.Errorf("In(&pub2) = %v", in)
	}
}

func TestIndexedMatchesNaiveScanProperty(t *testing.T) {
	// Property: for any graph, the indexed answers equal a naive scan.
	f := func(n uint8) bool {
		g := graph.New()
		size := int(n%30) + 2
		for i := 0; i < size; i++ {
			from := graph.OID(fmt.Sprintf("n%d", i))
			g.AddEdge(from, fmt.Sprintf("l%d", i%4), graph.NewInt(int64(i%5)))
			g.AddEdge(from, "next", graph.NewNode(graph.OID(fmt.Sprintf("n%d", (i+1)%size))))
		}
		ix := NewIndexed(g)
		for lbl := 0; lbl < 4; lbl++ {
			label := fmt.Sprintf("l%d", lbl)
			var naive int
			g.Edges(func(e graph.Edge) bool {
				if e.Label == label {
					naive++
				}
				return true
			})
			if len(ix.EdgesLabeled(label)) != naive {
				return false
			}
		}
		for v := 0; v < 5; v++ {
			val := graph.NewInt(int64(v))
			var naive int
			g.Edges(func(e graph.Edge) bool {
				if e.To == val {
					naive++
				}
				return true
			})
			if len(ix.In(val)) != naive {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRepositoryPutGetDrop(t *testing.T) {
	r := NewRepository()
	r.Put("data", sampleGraph())
	if r.Get("data") == nil {
		t.Fatal("Get after Put returned nil")
	}
	if r.Get("absent") != nil {
		t.Error("Get(absent) should be nil")
	}
	names := r.Names()
	if len(names) != 1 || names[0] != "data" {
		t.Errorf("Names = %v", names)
	}
	if !r.Drop("data") || r.Drop("data") {
		t.Error("Drop semantics wrong")
	}
}

func TestRepositorySaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := NewRepository()
	r.Put("data", sampleGraph())
	g2 := graph.New()
	g2.AddEdge("x", "a", graph.NewString("v"))
	r.Put("site graph", g2) // name needs sanitizing
	if err := r.Save(dir); err != nil {
		t.Fatal(err)
	}
	r2 := NewRepository()
	if err := r2.Load(dir); err != nil {
		t.Fatal(err)
	}
	got := r2.Get("data")
	if got == nil {
		t.Fatal("data graph missing after load")
	}
	if ddl.Print(got) != ddl.Print(sampleGraph()) {
		t.Errorf("data graph changed by round trip:\n%s\nvs\n%s", ddl.Print(got), ddl.Print(sampleGraph()))
	}
	if r2.Get("site_graph") == nil {
		t.Error("sanitized graph name missing after load")
	}
}

func TestRepositoryBinarySaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := NewRepository()
	r.Put("data", sampleGraph())
	if err := r.SaveBinary(dir); err != nil {
		t.Fatal(err)
	}
	r2 := NewRepository()
	if err := r2.LoadBinary(dir); err != nil {
		t.Fatal(err)
	}
	got := r2.Get("data")
	if got == nil || ddl.Print(got) != ddl.Print(sampleGraph()) {
		t.Error("binary repository round trip failed")
	}
	if err := r2.LoadBinary("/nonexistent/xyz"); err == nil {
		t.Error("LoadBinary of missing dir should fail")
	}
}

func TestRepositoryLoadMissingDir(t *testing.T) {
	r := NewRepository()
	if err := r.Load("/nonexistent/path/xyz"); err == nil {
		t.Error("Load of missing dir should fail")
	}
}

func TestRepositoryConcurrentAccess(t *testing.T) {
	r := NewRepository()
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			name := fmt.Sprintf("g%d", i%4)
			r.Put(name, sampleGraph())
			_ = r.Get(name)
			_ = r.Names()
		}(i)
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}
