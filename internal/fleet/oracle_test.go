package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"strudel/internal/dynamic"
	"strudel/internal/schema"
)

// The serving differential oracle: every page served by any fleet
// configuration — any shard count, any replica, cache cold, hot, or
// stale, before and after a mid-run hot reload, in-process or over real
// HTTP — must be byte-identical to what a single evaluator answers
// directly for the same data generation. The reference is computed per
// generation with dynamic.Renderer over a plain indexed graph (the direct
// EvalWhere path); the fleet path adds SGB2 snapshot replication,
// consistent-hash routing, replica rotation, the edge cache, and
// optionally an HTTP hop, none of which may change a byte.

// refOracle holds per-generation reference servers and memoizes page
// renders.
type refOracle struct {
	t      *testing.T
	refs   map[int64]*dynamic.Renderer
	bodies map[int64]map[string]string
}

func newRefOracle(t *testing.T) *refOracle {
	return &refOracle{
		t:      t,
		refs:   map[int64]*dynamic.Renderer{},
		bodies: map[int64]map[string]string{},
	}
}

func (o *refOracle) addGen(gen int64, srv *dynamic.Renderer) {
	o.refs[gen] = srv
	o.bodies[gen] = map[string]string{}
}

// body returns the reference rendering of a page at a generation.
func (o *refOracle) body(gen int64, ref dynamic.PageRef) string {
	key := EncodeRef(ref)
	if b, ok := o.bodies[gen][key]; ok {
		return b
	}
	srv := o.refs[gen]
	if srv == nil {
		o.t.Fatalf("oracle response claims unknown generation %d", gen)
	}
	b, err := srv.RenderPage(ref)
	if err != nil {
		o.t.Fatalf("reference render of %s at gen %d: %v", key, gen, err)
	}
	o.bodies[gen][key] = b
	return b
}

// check asserts a served body matches the reference for the generation
// the response was tagged with, and returns 1 (an oracle request).
func (o *refOracle) check(where string, gen int64, ref dynamic.PageRef, body string) int {
	if want := o.body(gen, ref); body != want {
		o.t.Fatalf("%s: page %s at gen %d differs from single-evaluator reference\n got: %q\nwant: %q",
			where, EncodeRef(ref), gen, body, want)
	}
	return 1
}

func TestServingDifferentialOracle(t *testing.T) {
	s := buildSchema(t)
	seeds := fleetOracleSeeds
	if testing.Short() {
		seeds = 1
	}
	total := 0
	for seed := 1; seed <= seeds; seed++ {
		for _, shards := range []int{1, 2, 4} {
			total += runServingOracle(t, s, uint64(seed), shards)
		}
	}
	t.Logf("serving oracle: %d requests byte-checked", total)
	if !testing.Short() && total < minOracleRequests {
		t.Fatalf("oracle issued %d requests, acceptance floor is %d", total, minOracleRequests)
	}
}

// runServingOracle drives one (site seed, shard count) cell of the
// matrix: direct replica sweeps, then cold/hot/conditional requests
// through the edge, then a hot reload with stale-window and post-reload
// checks. Returns the number of oracle requests issued.
func runServingOracle(t *testing.T, s *schema.Schema, seed uint64, shards int) int {
	const replicas = 2
	g0, g1 := genSiteData(seed), mutateSiteData(seed)
	f := newTestFleet(t, s, g0, shards, replicas)
	e := NewEdge(f)
	e.StaleFor = 30 * time.Second // make the stale state deterministically observable
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	oracle := newRefOracle(t)
	oracle.addGen(0, newReference(t, s, g0))
	oracle.addGen(1, newReference(t, s, g1))
	refs := crawlRefs(t, oracle.refs[0])

	// Seeded shuffle: the request order and per-page replica picks vary
	// by seed without losing reproducibility.
	r := newTestRand(seed ^ uint64(shards)<<32)
	for i := len(refs) - 1; i > 0; i-- {
		j := r.n(i + 1)
		refs[i], refs[j] = refs[j], refs[i]
	}

	n := 0
	etag0 := map[string]string{}
	for _, ref := range refs {
		key := EncodeRef(ref)

		// Any replica of the owning shard, asked directly, agrees with
		// the reference.
		rep := f.Replica(f.Route(key), r.n(replicas))
		body, gen, err := rep.Render(context.Background(), ref)
		if err != nil {
			t.Fatalf("replica render %s: %v", key, err)
		}
		n += oracle.check("direct replica", gen, ref, body)

		// Cold: first edge request misses the cache and fetches.
		status, hdr, body := get(t, ts, PageURL(ref), nil)
		if status != http.StatusOK {
			t.Fatalf("cold GET %s = %d", PageURL(ref), status)
		}
		n += oracle.check("edge cold", etagGen(t, hdr.Get("ETag")), ref, body)
		etag0[key] = hdr.Get("ETag")

		// Hot: second request serves the cached bytes.
		status, hdr, body = get(t, ts, PageURL(ref), nil)
		if status != http.StatusOK {
			t.Fatalf("hot GET %s = %d", PageURL(ref), status)
		}
		n += oracle.check("edge hot", etagGen(t, hdr.Get("ETag")), ref, body)

		// Conditional: the validator just issued answers 304.
		status, _, _ = get(t, ts, PageURL(ref), map[string]string{"If-None-Match": etag0[key]})
		if status != http.StatusNotModified {
			t.Fatalf("conditional GET %s = %d, want 304", PageURL(ref), status)
		}
	}

	// Mid-run hot reload: every replica of every shard swaps to the same
	// new generation.
	f.SwapData(g1.Freeze(), nil)

	for _, ref := range refs {
		key := EncodeRef(ref)

		// Stale: inside the SWR window the edge may serve the pre-reload
		// bytes or already-revalidated fresh ones — either way the body
		// must match the reference for the generation it is tagged with.
		status, hdr, body := get(t, ts, PageURL(ref), nil)
		if status != http.StatusOK {
			t.Fatalf("stale-window GET %s = %d", PageURL(ref), status)
		}
		n += oracle.check("edge stale-window", etagGen(t, hdr.Get("ETag")), ref, body)

		// Conditional with the pre-reload validator: must revalidate
		// synchronously to a full 200 at the new generation.
		status, hdr, body = get(t, ts, PageURL(ref), map[string]string{"If-None-Match": etag0[key]})
		if status != http.StatusOK {
			t.Fatalf("post-reload conditional GET %s = %d, want 200", PageURL(ref), status)
		}
		if gen := etagGen(t, hdr.Get("ETag")); gen != 1 {
			t.Fatalf("post-reload conditional GET %s served generation %d, want 1", PageURL(ref), gen)
		} else {
			n += oracle.check("edge post-reload", gen, ref, body)
		}

		// Post-reload direct replica sweep at the new generation.
		rep := f.Replica(f.Route(key), r.n(replicas))
		body, gen, err := rep.Render(context.Background(), ref)
		if err != nil {
			t.Fatalf("post-reload replica render %s: %v", key, err)
		}
		if gen != 1 {
			t.Fatalf("post-reload replica render %s at generation %d, want 1", key, gen)
		}
		n += oracle.check("direct replica post-reload", gen, ref, body)
	}
	return n
}

// TestServingOracleOverHTTP runs the oracle matrix's served-over-HTTP
// configuration: oracle query → edge → HTTP hop → shard replica must
// equal the direct evaluator answer, before and after a reload.
func TestServingOracleOverHTTP(t *testing.T) {
	const shards, replicas = 2, 2
	s := buildSchema(t)
	g0, g1 := genSiteData(7), mutateSiteData(7)
	f := newTestFleet(t, s, g0, shards, replicas)

	// Every replica becomes its own HTTP server, like a multi-process
	// deployment.
	urls := make([][]string, shards)
	for sh := 0; sh < shards; sh++ {
		for i := 0; i < replicas; i++ {
			rts := httptest.NewServer(ReplicaHandler(f.Replica(sh, i)))
			defer rts.Close()
			urls[sh] = append(urls[sh], rts.URL)
		}
	}
	if err := f.ServeOverHTTP(urls); err != nil {
		t.Fatal(err)
	}
	e := NewEdge(f)
	e.StaleFor = 0 // post-reload requests must synchronously cross the wire
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	oracle := newRefOracle(t)
	oracle.addGen(0, newReference(t, s, g0))
	oracle.addGen(1, newReference(t, s, g1))
	refs := crawlRefs(t, oracle.refs[0])

	n := 0
	for _, ref := range refs {
		status, hdr, body := get(t, ts, PageURL(ref), nil)
		if status != http.StatusOK {
			t.Fatalf("HTTP-cluster GET %s = %d", PageURL(ref), status)
		}
		n += oracle.check("http cluster", etagGen(t, hdr.Get("ETag")), ref, body)
	}
	f.SwapData(g1.Freeze(), nil)
	for _, ref := range refs {
		status, hdr, body := get(t, ts, PageURL(ref), nil)
		if status != http.StatusOK {
			t.Fatalf("HTTP-cluster post-reload GET %s = %d", PageURL(ref), status)
		}
		if gen := etagGen(t, hdr.Get("ETag")); gen != 1 {
			t.Fatalf("HTTP-cluster post-reload GET %s at generation %d, want 1", PageURL(ref), gen)
		} else {
			n += oracle.check("http cluster post-reload", gen, ref, body)
		}
	}
	t.Logf("HTTP-cluster oracle: %d requests byte-checked", n)
}
