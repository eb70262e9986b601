package dynamic

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"strudel/internal/graph"
	"strudel/internal/schema"
	"strudel/internal/struql"
	"strudel/internal/template"
)

// slowQuery walks eight attributes of every publication, so that an
// evaluation over a delayed FaultSource takes long enough to observe
// deadlines and cancellation at operator boundaries.
const slowQuery = `
create Root()
where Pubs(x), x -> "a0" -> v0, x -> "a1" -> v1, x -> "a2" -> v2,
      x -> "a3" -> v3, x -> "a4" -> v4, x -> "a5" -> v5,
      x -> "a6" -> v6, x -> "a7" -> v7
link Root() -> "e" -> v0
`

func slowData(rows int) *graph.Graph {
	g := graph.New()
	for i := 0; i < rows; i++ {
		oid := graph.OID(fmt.Sprintf("p%04d", i))
		g.AddToCollection("Pubs", oid)
		for a := 0; a < 8; a++ {
			g.AddEdge(oid, fmt.Sprintf("a%d", a), graph.NewInt(int64(i*8+a)))
		}
	}
	return g
}

func TestSingleFlightComputesOnce(t *testing.T) {
	// The per-access delay widens the window in which all goroutines pile
	// onto the same uncomputed page.
	fs := NewFaultSource(struql.NewGraphSource(slowData(64)), 100*time.Microsecond)
	ev := NewEvaluator(schema.Build(struql.MustParse(slowQuery)), fs)
	const clients = 16
	var wg sync.WaitGroup
	results := make([]*PageData, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			pd, err := ev.PageCtx(context.Background(), PageRef{Fn: "Root"})
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			results[i] = pd
		}()
	}
	wg.Wait()
	st := ev.StatsSnapshot()
	if st.PagesComputed != 1 {
		t.Errorf("PagesComputed = %d, want 1 (single-flight)", st.PagesComputed)
	}
	if st.CacheHits != clients-1 {
		t.Errorf("CacheHits = %d, want %d", st.CacheHits, clients-1)
	}
	for i := 1; i < clients; i++ {
		if results[i] != results[0] {
			t.Errorf("client %d got a different PageData instance", i)
		}
	}
}

func TestCancelledRequestStopsEvaluation(t *testing.T) {
	data := slowData(256)
	q := struql.MustParse(slowQuery)

	// Baseline: how many source accesses does a full evaluation make?
	base := NewFaultSource(struql.NewGraphSource(data), 0)
	ev := NewEvaluator(schema.Build(q), base)
	if _, err := ev.Page(PageRef{Fn: "Root"}); err != nil {
		t.Fatal(err)
	}
	fullOps := base.Ops()

	// Cancelled run: each access sleeps 1ms, the context dies a few ms in,
	// and evaluation must stop at an operator boundary well short of the
	// full walk.
	fs := NewFaultSource(struql.NewGraphSource(data), time.Millisecond)
	ev2 := NewEvaluator(schema.Build(q), fs)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err := ev2.PageCtx(ctx, PageRef{Fn: "Root"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ops := fs.Ops(); ops >= fullOps/2 {
		t.Errorf("cancelled evaluation made %d source accesses; a full run makes %d — cancellation did not stop it early", ops, fullOps)
	}
	// A cancelled leader must not poison the page: a fresh request
	// computes it successfully.
	if _, err := ev2.Page(PageRef{Fn: "Root"}); err != nil {
		t.Errorf("page poisoned after cancelled leader: %v", err)
	}
}

func TestEmbedCycleDegradesToReference(t *testing.T) {
	q := struql.MustParse(`
create A()
create B()
link A() -> "title" -> "a-title",
     A() -> "next" -> B(),
     B() -> "back" -> A()
`)
	ev := NewEvaluator(schema.Build(q), struql.NewGraphSource(graph.New()))
	ts := template.NewSet()
	ts.MustAdd("A", `A[<SFMT next EMBED>]`)
	ts.MustAdd("B", `B{<SFMT back EMBED>}`)
	srv := NewRenderer(ev, ts, testURL)
	srv.PerFn["A"] = "A"
	srv.PerFn["B"] = "B"
	out, err := srv.RenderPage(PageRef{Fn: "A"})
	if err != nil {
		t.Fatal(err)
	}
	// A embeds B; B's embed of A closes the cycle and degrades to a
	// reference exactly there instead of recursing.
	if !strings.Contains(out, `A[B{<a href="/A">A()</a>}]`) {
		t.Errorf("cyclic render = %q", out)
	}
}

func TestEmbedSelfCycle(t *testing.T) {
	q := struql.MustParse(`
create C()
link C() -> "self" -> C()
`)
	ev := NewEvaluator(schema.Build(q), struql.NewGraphSource(graph.New()))
	ts := template.NewSet()
	ts.MustAdd("C", `C(<SFMT self EMBED>)`)
	srv := NewRenderer(ev, ts, testURL)
	srv.PerFn["C"] = "C"
	out, err := srv.RenderPage(PageRef{Fn: "C"})
	if err != nil {
		t.Fatal(err)
	}
	if out != `C(<a href="/C">C()</a>)` {
		t.Errorf("self-cycle render = %q", out)
	}
}
