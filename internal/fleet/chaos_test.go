package fleet

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"strudel/internal/dynamic"
	"strudel/internal/graph"
	"strudel/internal/obs"
	"strudel/internal/schema"
	"strudel/internal/struql"
	"strudel/internal/template"
)

// Chaos drills: replicas die mid-flight and the serving tier must
// degrade exactly as specified — failover to siblings while any replica
// of the shard lives, honest 503 + Retry-After when none does, and no
// request ever hanging past its deadline.

func TestChaosReplicaFailover(t *testing.T) {
	s := buildSchema(t)
	g := genSiteData(11)
	m := &obs.FleetMetrics{}
	f, err := New(Config{Schema: s, Shards: 2, Replicas: 2, Obs: m}, g.Freeze())
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	e := NewEdge(f)
	e.Obs = m
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	refs := crawlRefs(t, newReference(t, s, g))

	// One replica of each shard dies. Every page must still serve: the
	// rotation lands half the fetches on the corpse first, so failover
	// is exercised, not just possible.
	f.Replica(0, 0).Kill()
	f.Replica(1, 0).Kill()
	for _, ref := range refs {
		if status, _, _ := get(t, ts, PageURL(ref), nil); status != http.StatusOK {
			t.Fatalf("GET %s with one replica down = %d", PageURL(ref), status)
		}
	}
	if m.Failovers.Load() == 0 {
		t.Fatal("no failovers recorded while a replica was down")
	}
}

func TestChaosShardDown(t *testing.T) {
	s := buildSchema(t)
	g := genSiteData(12)
	f := newTestFleet(t, s, g, 2, 2)
	e := quiet(NewEdge(f))
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	refs := crawlRefs(t, newReference(t, s, g))

	// Split pages by owning shard; the site is large enough that both
	// shards own some.
	byShard := map[int][]string{}
	for _, ref := range refs {
		key := EncodeRef(ref)
		byShard[f.Route(key)] = append(byShard[f.Route(key)], PageURL(ref))
	}
	if len(byShard[0]) == 0 || len(byShard[1]) == 0 {
		t.Fatalf("degenerate partition: %d/%d pages", len(byShard[0]), len(byShard[1]))
	}

	// Kill every replica of shard 0: its pages degrade to 503 with a
	// Retry-After hint; shard 1's pages are untouched.
	f.Replica(0, 0).Kill()
	f.Replica(0, 1).Kill()
	for _, p := range byShard[0] {
		status, hdr, _ := get(t, ts, p, nil)
		if status != http.StatusServiceUnavailable {
			t.Fatalf("GET %s with shard down = %d, want 503", p, status)
		}
		if hdr.Get("Retry-After") == "" {
			t.Fatalf("503 for %s missing Retry-After", p)
		}
	}
	for _, p := range byShard[1] {
		if status, _, _ := get(t, ts, p, nil); status != http.StatusOK {
			t.Fatalf("GET %s on the healthy shard = %d", p, status)
		}
	}

	// Healing: one replica revives and the shard serves again.
	f.Replica(0, 1).Revive()
	for _, p := range byShard[0] {
		if status, _, _ := get(t, ts, p, nil); status != http.StatusOK {
			t.Fatalf("GET %s after revival = %d", p, status)
		}
	}
}

// TestChaosKillsUnderLoad hammers the edge while replicas are killed
// and revived at random. Invariants: every request completes well
// inside the deadline (kills cancel in-flight renders instead of
// letting them hang), and every completion is either a correct 200 or
// an honest 503.
func TestChaosKillsUnderLoad(t *testing.T) {
	s := buildSchema(t)
	g := genSiteData(13)
	f := newTestFleet(t, s, g, 2, 2)
	e := quiet(NewEdge(f))
	e.RequestTimeout = 2 * time.Second
	e.StaleFor = 0
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	ref := newReference(t, s, g)
	refs := crawlRefs(t, ref)
	want := map[string]string{}
	for _, r := range refs {
		b, err := ref.RenderPage(r)
		if err != nil {
			t.Fatalf("reference render: %v", err)
		}
		want[PageURL(r)] = b
	}

	const workers, perWorker = 8, 40
	maxRequest := e.RequestTimeout + 3*time.Second // generous slack over the server deadline

	stop := make(chan struct{})
	var chaosWg sync.WaitGroup
	chaosWg.Add(1)
	go func() {
		defer chaosWg.Done()
		r := newTestRand(99)
		for {
			select {
			case <-stop:
				// Leave everything alive for the epilogue.
				for sh := 0; sh < f.Shards(); sh++ {
					for i := 0; i < f.ReplicasPerShard(); i++ {
						f.Replica(sh, i).Revive()
					}
				}
				return
			default:
			}
			rep := f.Replica(r.n(f.Shards()), r.n(f.ReplicasPerShard()))
			rep.Kill()
			time.Sleep(time.Duration(1+r.n(3)) * time.Millisecond)
			if r.n(4) != 0 {
				rep.Revive()
			}
			time.Sleep(time.Duration(1+r.n(3)) * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	errCh := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := newTestRand(uint64(1000 + w))
			client := &http.Client{Timeout: maxRequest}
			for i := 0; i < perWorker; i++ {
				p := PageURL(refs[r.n(len(refs))])
				start := time.Now()
				resp, err := client.Get(ts.URL + p)
				elapsed := time.Since(start)
				if err != nil {
					errCh <- err
					continue
				}
				body := readAll(t, resp)
				if elapsed > maxRequest {
					t.Errorf("GET %s took %v, past the no-hang bound %v", p, elapsed, maxRequest)
				}
				switch resp.StatusCode {
				case http.StatusOK:
					if body != want[p] {
						t.Errorf("GET %s under chaos returned wrong bytes", p)
					}
				case http.StatusServiceUnavailable:
					if resp.Header.Get("Retry-After") == "" {
						t.Errorf("503 for %s missing Retry-After", p)
					}
				default:
					t.Errorf("GET %s under chaos = %d, want 200 or 503", p, resp.StatusCode)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	chaosWg.Wait()
	close(errCh)
	for err := range errCh {
		// A transport-level failure would mean a hung or severed request.
		t.Errorf("request failed: %v", err)
	}

	// After the chaos stops and everything is revived, the fleet serves
	// every page correctly again.
	for _, r := range refs {
		status, _, body := get(t, ts, PageURL(r), nil)
		if status != http.StatusOK || body != want[PageURL(r)] {
			t.Fatalf("post-chaos GET %s = %d (correct=%v)", PageURL(r), status, body == want[PageURL(r)])
		}
	}
}

// neighbourQuery is a site whose Root page links Card pages by name: a
// render of Root computes each Card it links to for the anchor text.
// Card's pic query runs after its name query, so a render cancelled
// during the name read sees the cancellation at the next query.
const neighbourQuery = `
create Root()
link Root() -> "title" -> "Home"

where Items(x)
create Card(x)
link Root() -> "Card" -> Card(x)
{
  where x -> "name" -> n
  link Card(x) -> "name" -> n
}
{
  where x -> "pic" -> p
  link Card(x) -> "pic" -> p
}
`

// trapSource runs trip once, at its first read once armed. The test
// arms it after Root is cached, so it fires while a render of Root
// computes its neighbour Card(i1): that evaluation starts by copying
// the snapshot-less source.
type trapSource struct {
	struql.Source
	armed atomic.Bool
	once  sync.Once
	trip  func()
}

func (s *trapSource) Out(oid graph.OID) []graph.Edge {
	if s.armed.Load() {
		s.once.Do(s.trip)
	}
	return s.Source.Out(oid)
}

// TestNeighbourReadFailureNeverCaches200 kills the replica, or outlives
// its attempt timeout, while a render reads a neighbour page. The edge
// must fail over or answer an error, and never cache a 200 whose Card
// link reads "Card(i1)" where the name "First" belongs.
func TestNeighbourReadFailureNeverCaches200(t *testing.T) {
	for _, tc := range []struct {
		name string
		gray GrayConfig
		trip func(f *Fleet)
	}{
		{"attempt-timeout", GrayConfig{DisableHedge: true, AttemptTimeout: 50 * time.Millisecond},
			func(*Fleet) { time.Sleep(300 * time.Millisecond) }},
		{"kill", GrayConfig{DisableHedge: true},
			func(f *Fleet) {
				f.Replica(0, 0).Kill()
				f.Replica(0, 1).Kill()
				// A kill cancels in-flight renders from a goroutine of
				// its own; let it land before the read returns.
				time.Sleep(20 * time.Millisecond)
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.New()
			g.AddToCollection("Items", "i1")
			g.AddEdge("i1", "name", graph.NewString("First"))
			g.AddEdge("i1", "pic", graph.NewString("p.gif"))
			var f *Fleet
			src := &trapSource{Source: g, trip: func() { tc.trip(f) }}
			tmpl := template.NewSet()
			tmpl.MustAdd("Root", `<SFMT Card>`)
			f, err := New(Config{
				Schema: schema.Build(struql.MustParse(neighbourQuery)), Templates: tmpl,
				PerFn: map[string]string{"Root": "Root"}, Shards: 1, Replicas: 2, Gray: tc.gray,
			}, src)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(quiet(NewEdge(f)).Handler())
			defer ts.Close()
			root := dynamic.PageRef{Fn: "Root"}
			if _, err := f.srv.Ev.Page(root); err != nil {
				t.Fatal(err)
			}
			src.armed.Store(true)
			url := PageURL(root)

			status, _, body := get(t, ts, url, nil)
			fired := false
			src.once.Do(func() { fired = true })
			if fired {
				t.Fatal("the trap never fired: no neighbour read was failed")
			}
			if status == http.StatusOK && !strings.Contains(body, ">First<") {
				t.Fatalf("GET %s = 200 with a hole where the neighbour read failed:\n%s", url, body)
			}
			f.Replica(0, 0).Revive()
			f.Replica(0, 1).Revive()
			status, _, body = get(t, ts, url, nil)
			if status != http.StatusOK || !strings.Contains(body, ">First<") {
				t.Fatalf("GET %s after recovery = %d:\n%s", url, status, body)
			}
		})
	}
}
