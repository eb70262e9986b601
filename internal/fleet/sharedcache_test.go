package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"strudel/internal/dynamic"
	"strudel/internal/graph"
	"strudel/internal/mediator"
	"strudel/internal/obs"
	"strudel/internal/schema"
	"strudel/internal/struql"
	"strudel/internal/template"
)

// The fleet's replicas share one evaluator: one page cache, one
// single-flight table and one Skolem environment per generation. These
// tests pin what that buys — a page is computed once per process, not
// once per replica — and what it must not cost: a replica killed while
// it leads a computation others wait on hands the page over instead of
// failing them.

// gatedSource is a snapshot-less source whose evaluations can be held.
// An evaluation of a source without a snapshot starts by copying it,
// and NumNodes is the copy's first read, so while the gate is armed
// every evaluation announces itself on entered and waits until the
// channel it sent is closed.
type gatedSource struct {
	struql.Source
	armed   atomic.Bool
	entered chan chan struct{}
}

func (s *gatedSource) NumNodes() int {
	if s.armed.Load() {
		release := make(chan struct{})
		s.entered <- release
		<-release
	}
	return s.Source.NumNodes()
}

// embedQuery makes every Pub(x) a page that both A(x) and B(x) embed.
const embedQuery = `
where Pubs(x), x -> "title" -> t
create Pub(x), A(x), B(x)
link Pub(x) -> "title" -> t, A(x) -> "pub" -> Pub(x), B(x) -> "pub" -> Pub(x)
`

func embedTemplates() (*template.Set, map[string]string) {
	ts := template.NewSet()
	ts.MustAdd("A", `A[<SFMT pub EMBED>]`)
	ts.MustAdd("B", `B[<SFMT pub EMBED>]`)
	ts.MustAdd("Pub", `<SFMT title>`)
	return ts, map[string]string{"A": "A", "B": "B", "Pub": "Pub"}
}

type renderResult struct {
	body string
	err  error
}

func renderAsync(rep *Replica, ref dynamic.PageRef) <-chan renderResult {
	out := make(chan renderResult, 1)
	go func() {
		body, _, err := rep.Render(context.Background(), ref)
		out <- renderResult{body, err}
	}()
	return out
}

func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
	var zero T
	return zero
}

// TestSingleFlightAcrossShards has a replica of one shard render A(x)
// and a replica of the other render B(x) while A's render is held in
// the middle of computing the Pub(x) both embed. B's render joins that
// computation instead of starting its own. Whether A's replica then
// finishes or is killed, B's caller gets the reference bytes and never
// ErrReplicaDown, and Pub(x) is computed once.
func TestSingleFlightAcrossShards(t *testing.T) {
	g := graph.New()
	for i := 0; i < 8; i++ {
		oid := graph.OID(fmt.Sprintf("pub%d", i))
		g.AddToCollection("Pubs", oid)
		g.AddEdge(oid, "title", graph.NewString(fmt.Sprintf("Title %d", i)))
	}
	sch := schema.Build(struql.MustParse(embedQuery))
	ts, perFn := embedTemplates()
	ref := dynamic.NewRenderer(dynamic.NewEvaluator(sch, g.Freeze()), ts, PageURL)
	ref.PerFn = perFn

	// race runs the scenario once and returns the leader's error.
	race := func(t *testing.T, kill bool) error {
		src := &gatedSource{Source: g, entered: make(chan chan struct{})}
		m := &obs.ServeMetrics{}
		f, err := New(Config{Schema: sch, Templates: ts, PerFn: perFn, Shards: 2, Replicas: 2, ServeObs: m}, src)
		if err != nil {
			t.Fatal(err)
		}
		// A pub whose A and B pages live on different shards.
		var a, b dynamic.PageRef
		for i := 0; ; i++ {
			if i == 8 {
				t.Fatal("no pub has its A and B pages on different shards")
			}
			args := []graph.Value{graph.NewNode(graph.OID(fmt.Sprintf("pub%d", i)))}
			a, b = dynamic.PageRef{Fn: "A", Args: args}, dynamic.PageRef{Fn: "B", Args: args}
			if f.Route(EncodeRef(a)) != f.Route(EncodeRef(b)) {
				break
			}
		}
		wantA, err := ref.RenderPage(a)
		if err != nil {
			t.Fatal(err)
		}
		wantB, err := ref.RenderPage(b)
		if err != nil {
			t.Fatal(err)
		}
		leader := f.Replica(f.Route(EncodeRef(a)), 0)
		sibling := f.Replica(f.Route(EncodeRef(b)), 0)

		// Let A(x) compute; hold the evaluation of the second page
		// missed, which is the Pub(x) A(x) embeds.
		src.armed.Store(true)
		gotA := renderAsync(leader, a)
		var hold chan struct{}
		for hold == nil {
			release := await(t, src.entered, "an evaluation of the leader's render")
			if m.PageCacheMisses.Load() >= 2 {
				hold = release
			} else {
				close(release)
			}
		}
		src.armed.Store(false)

		gotB := renderAsync(sibling, b)
		for deadline := time.Now().Add(10 * time.Second); m.Coalesced.Load() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the sibling's render never joined the leader's computation of Pub(x)")
			}
		}
		if kill {
			leader.Kill()
			// A kill cancels in-flight renders from a goroutine of its
			// own; give it a moment to land before the leader resumes.
			time.Sleep(time.Millisecond)
		}
		close(hold)

		ra := await(t, gotA, "the leader's render")
		rb := await(t, gotB, "the sibling's render")
		if ra.err == nil && ra.body != wantA {
			t.Errorf("leader's render = %q; want the reference %q", ra.body, wantA)
		}
		if rb.err != nil || rb.body != wantB {
			t.Errorf("sibling's render = %q, %v; want the reference %q", rb.body, rb.err, wantB)
		}
		// A(x), B(x) and the Pub(x) they share, each once.
		if n := m.PagesComputed.Load(); n != 3 {
			t.Errorf("pages computed = %d, want 3: Pub(x) is computed once for both shards", n)
		}

		// Not poisoned: another replica of the leader's shard renders
		// A(x) from the cache.
		body, _, err := f.Replica(f.Route(EncodeRef(a)), 1).Render(context.Background(), a)
		if err != nil || body != wantA {
			t.Errorf("A(x) after the handover = %q, %v; want the reference %q", body, err, wantA)
		}
		if n := m.PagesComputed.Load(); n != 3 {
			t.Errorf("pages computed after a cached render = %d, want 3", n)
		}
		return ra.err
	}

	t.Run("leader finishes", func(t *testing.T) {
		if err := race(t, false); err != nil {
			t.Errorf("leader's render: %v", err)
		}
	})
	t.Run("leader killed", func(t *testing.T) {
		// A kill that lands only after the held evaluation has finished
		// is an ordinary completion; repeat until the kill cancels it.
		for try := 0; try < 20; try++ {
			err := race(t, true)
			if errors.Is(err, ErrReplicaDown) {
				return
			}
			if err != nil {
				t.Fatalf("killed leader's render: err = %v, want ErrReplicaDown", err)
			}
		}
		t.Fatal("in 20 tries no kill landed while the leader computed Pub(x)")
	})
}

// oracleTemplates read the pages each page links: Root names every pub,
// year and tag by its title (or oid), Year embeds its pubs, Tag links
// them by title. A render therefore computes its neighbours, which a
// replica of another shard may already have computed.
func oracleTemplates() (*template.Set, map[string]string) {
	ts := template.NewSet()
	ts.MustAdd("Root", `<SFMT title> <SFMT pub UL> <SFMT years UL> <SFMT tags UL>`)
	ts.MustAdd("Year", `<SFMT year>: <SFMT has EMBED ENUM>`)
	ts.MustAdd("Tag", `<SFMT tag>: <SFMT member ENUM>`)
	ts.MustAdd("Pub", `<SFMT title> (<SFMT self>)`)
	return ts, map[string]string{"Root": "Root", "Year": "Year", "Tag": "Tag", "Pub": "Pub"}
}

// crawlFleet renders every page of the crawl on every replica of its
// owning shard, rotating which replica goes first, and checks each body
// against the reference.
func crawlFleet(t *testing.T, f *Fleet, pages []dynamic.PageRef, want []string) {
	t.Helper()
	n := f.ReplicasPerShard()
	for round := 0; round < n; round++ {
		for k, pr := range pages {
			key := EncodeRef(pr)
			got, _, err := f.Replica(f.Route(key), (k+round)%n).Render(context.Background(), pr)
			if err != nil {
				t.Fatalf("render %s: %v", key, err)
			}
			if got != want[k] {
				t.Fatalf("page %s differs from the reference:\n got %q\nwant %q", key, got, want[k])
			}
		}
	}
}

// TestFleetComputesEachPageOnce crawls the oracle site through every
// replica of a 2×2 fleet and through a 1×1 fleet: both compute exactly
// the pages one evaluator computes, and every body is the reference's.
// After the same delta both report the same kept and dropped counts,
// since a swap counts each cached page once, not once per replica.
func TestFleetComputesEachPageOnce(t *testing.T) {
	sch := buildSchema(t)
	ts, perFn := oracleTemplates()
	for _, seed := range []uint64{3, 17} {
		g := genSiteData(seed)
		ref := dynamic.NewRenderer(dynamic.NewEvaluator(sch, g.Freeze()), ts, PageURL)
		ref.PerFn = perFn
		pages := crawlRefs(t, ref)
		want := make([]string, len(pages))
		for i, pr := range pages {
			b, err := ref.RenderPage(pr)
			if err != nil {
				t.Fatalf("reference render: %v", err)
			}
			want[i] = b
		}
		// A new tag on one pub: the Root and Tag pages read tags, the
		// Pub and Year pages do not.
		next := genSiteData(seed)
		next.AddEdge("pub00", "tag", graph.NewString("retagged"))
		delta := mediator.Diff(g, next)

		type account struct{ computed, kept, dropped int }
		run := func(shards, replicas int) account {
			m := &obs.ServeMetrics{}
			f, err := New(Config{Schema: sch, Templates: ts, PerFn: perFn, Shards: shards, Replicas: replicas, ServeObs: m}, g.Freeze())
			if err != nil {
				t.Fatal(err)
			}
			crawlFleet(t, f, pages, want)
			kept, dropped := f.SwapData(next.Freeze(), delta)
			return account{int(m.PagesComputed.Load()), kept, dropped}
		}
		one, grid := run(1, 1), run(2, 2)
		if one.computed != len(pages) {
			t.Errorf("seed %d: a 1×1 crawl computed %d pages, the site has %d", seed, one.computed, len(pages))
		}
		if grid != one {
			t.Errorf("seed %d: 2×2 fleet %+v, 1×1 fleet %+v: the grid must compute and swap each page once", seed, grid, one)
		}
		if one.kept == 0 || one.dropped == 0 {
			t.Errorf("seed %d: the delta kept %d and dropped %d pages; the pin needs both", seed, one.kept, one.dropped)
		}
	}
}
