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
	"strudel/internal/obs"
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
	fs := NewFaultSource(slowData(64), 100*time.Microsecond)
	ev := NewEvaluator(schema.Build(struql.MustParse(slowQuery)), fs)
	m := &obs.ServeMetrics{}
	ev.Obs = m
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
	if got := m.PagesComputed.Load(); got != 1 {
		t.Errorf("PagesComputed = %d, want 1 (single-flight)", got)
	}
	// Every other client either found the page cached or waited on the
	// leader's computation.
	if hits, joined := m.PageCacheHits.Load(), m.Coalesced.Load(); hits+joined != clients-1 {
		t.Errorf("cache hits %d + coalesced %d = %d, want %d", hits, joined, hits+joined, clients-1)
	}
	for i := 1; i < clients; i++ {
		if results[i] != results[0] {
			t.Errorf("client %d got a different PageData instance", i)
		}
	}
}

// pollCancelCtx is a request context cancelled from within the
// evaluation: its Err polls succeed until after of them have passed,
// and every later poll reports context.Canceled. It places the
// cancellation at a chosen poll, independent of timing.
type pollCancelCtx struct {
	context.Context
	after int

	mu    sync.Mutex
	polls int
	done  chan struct{}
}

func newPollCancelCtx(after int) *pollCancelCtx {
	return &pollCancelCtx{Context: context.Background(), after: after, done: make(chan struct{})}
}

func (c *pollCancelCtx) Done() <-chan struct{} { return c.done }

func (c *pollCancelCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.polls++
	if c.polls <= c.after {
		return nil
	}
	if c.polls == c.after+1 {
		close(c.done)
	}
	return context.Canceled
}

func (c *pollCancelCtx) Polls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.polls
}

// TestCancelledRequestStopsEvaluation pins cancellation inside an
// operator. The page's query ends in a cross product of 512 × 512 rows,
// and its request is cancelled in the middle of that last operator.
// Only the evaluator's polls between row batches can observe that
// cancellation: no operator boundary follows.
func TestCancelledRequestStopsEvaluation(t *testing.T) {
	data := graph.New()
	for i := 0; i < 512; i++ {
		data.AddToCollection("Pubs", graph.OID(fmt.Sprintf("p%04d", i)))
	}
	snap := data.Freeze()
	q := struql.MustParse(`create Root() where Pubs(x), Pubs(y) link Root() -> "pair" -> x`)

	// Before the cross product the evaluation polls three times: at its
	// two operator boundaries and in the single row batch of Pubs(x).
	// The first cross-product batch is the fourth poll, so cancelling
	// from the fifth lands within the cross product.
	const after = 4
	full := newPollCancelCtx(1 << 30)
	if _, err := NewEvaluator(schema.Build(q), snap).PageCtx(full, PageRef{Fn: "Root"}); err != nil {
		t.Fatal(err)
	}
	if full.Polls() <= after+1 {
		t.Fatalf("a full evaluation polls its context %d times; the cross product must poll between row batches", full.Polls())
	}

	ev := NewEvaluator(schema.Build(q), snap)
	ctx := newPollCancelCtx(after)
	if _, err := ev.PageCtx(ctx, PageRef{Fn: "Root"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled from a poll inside the cross product", err)
	}
	// A cancelled leader must not poison the page: a fresh request
	// computes it successfully.
	if _, err := ev.Page(PageRef{Fn: "Root"}); err != nil {
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
	ev := NewEvaluator(schema.Build(q), graph.New())
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
	ev := NewEvaluator(schema.Build(q), graph.New())
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
