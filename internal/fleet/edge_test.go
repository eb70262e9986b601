package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"strudel/internal/dynamic"
	"strudel/internal/obs"
)

func TestEdgeConditionalGets(t *testing.T) {
	s := buildSchema(t)
	g0 := genSiteData(1)
	f := newTestFleet(t, s, g0, 2, 1)
	m := &obs.FleetMetrics{}
	e := NewEdge(f)
	e.Obs = m
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	ref := newReference(t, s, g0)
	wantRoot, err := ref.RenderPage(ref.Ev.EntryPoints()[0])
	if err != nil {
		t.Fatalf("reference render: %v", err)
	}

	status, hdr, body := get(t, ts, "/", nil)
	if status != http.StatusOK {
		t.Fatalf("GET / = %d", status)
	}
	if body != wantRoot {
		t.Fatalf("root page differs from reference:\n got %q\nwant %q", body, wantRoot)
	}
	etag := hdr.Get("ETag")
	if etag == "" || etagGen(t, etag) != 0 {
		t.Fatalf("ETag %q, want generation-0 tag", etag)
	}
	if hdr.Get("Last-Modified") == "" {
		t.Fatal("missing Last-Modified")
	}
	if cc := hdr.Get("Cache-Control"); cc != "no-cache" {
		t.Fatalf("Cache-Control = %q, want no-cache", cc)
	}

	// A matching validator answers 304 with no body.
	status, hdr2, body := get(t, ts, "/", map[string]string{"If-None-Match": etag})
	if status != http.StatusNotModified || body != "" {
		t.Fatalf("conditional GET = %d (%d bytes), want 304 empty", status, len(body))
	}
	if hdr2.Get("ETag") != etag {
		t.Fatalf("304 ETag %q != %q", hdr2.Get("ETag"), etag)
	}
	// Weak compare and lists match too.
	status, _, _ = get(t, ts, "/", map[string]string{"If-None-Match": `"other", W/` + etag})
	if status != http.StatusNotModified {
		t.Fatalf("list conditional GET = %d, want 304", status)
	}
	status, _, _ = get(t, ts, "/", map[string]string{"If-Modified-Since": hdr.Get("Last-Modified")})
	if status != http.StatusNotModified {
		t.Fatalf("If-Modified-Since GET = %d, want 304", status)
	}
	if m.NotModified.Load() < 3 {
		t.Fatalf("NotModified counter = %d, want >= 3", m.NotModified.Load())
	}

	// A hot reload bumps the generation: the same validator now earns a
	// full 200 with a new generation-1 tag and the new content.
	g1 := mutateSiteData(1)
	f.SwapData(g1.Freeze(), nil)
	ref1 := newReference(t, s, g1)
	want1, err := ref1.RenderPage(ref1.Ev.EntryPoints()[0])
	if err != nil {
		t.Fatalf("reference render gen1: %v", err)
	}
	status, hdr, body = get(t, ts, "/", map[string]string{"If-None-Match": etag})
	if status != http.StatusOK {
		t.Fatalf("post-reload conditional GET = %d, want 200", status)
	}
	if body != want1 {
		t.Fatalf("post-reload body differs from reference")
	}
	if ng := etagGen(t, hdr.Get("ETag")); ng != 1 {
		t.Fatalf("post-reload ETag generation = %d, want 1", ng)
	}
}

func TestEdgeStaleWhileRevalidate(t *testing.T) {
	s := buildSchema(t)
	g0 := genSiteData(2)
	f := newTestFleet(t, s, g0, 1, 1)
	m := &obs.FleetMetrics{}
	e := NewEdge(f)
	e.Obs = m
	e.StaleFor = 30 * time.Second // wide window: the stale serve must be observable
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	// Prime the cache at generation 0, then reload.
	_, hdr, body0 := get(t, ts, "/", nil)
	if g := etagGen(t, hdr.Get("ETag")); g != 0 {
		t.Fatalf("primed ETag generation = %d", g)
	}
	f.SwapData(mutateSiteData(2).Freeze(), nil)

	// Inside the window an unconditional GET serves the stale bytes
	// immediately (tagged with their own generation) and revalidates in
	// the background.
	status, hdr, body := get(t, ts, "/", nil)
	if status != http.StatusOK || body != body0 {
		t.Fatalf("stale GET = %d, body changed = %v; want 200 with gen-0 bytes", status, body != body0)
	}
	if g := etagGen(t, hdr.Get("ETag")); g != 0 {
		t.Fatalf("stale response ETag generation = %d, want 0", g)
	}
	if m.StaleServed.Load() == 0 {
		t.Fatal("StaleServed counter did not move")
	}

	// The background revalidation lands shortly: poll until the edge
	// serves generation 1.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, hdr, _ = get(t, ts, "/", nil)
		if etagGen(t, hdr.Get("ETag")) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("edge never revalidated to generation 1")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if m.Revalidations.Load() == 0 {
		t.Fatal("Revalidations counter did not move")
	}
}

func TestEdgeStaleDisabledFetchesSynchronously(t *testing.T) {
	s := buildSchema(t)
	f := newTestFleet(t, s, genSiteData(3), 1, 1)
	e := NewEdge(f)
	e.StaleFor = 0
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	get(t, ts, "/", nil)
	f.SwapData(mutateSiteData(3).Freeze(), nil)
	_, hdr, _ := get(t, ts, "/", nil)
	if g := etagGen(t, hdr.Get("ETag")); g != 1 {
		t.Fatalf("with StaleFor=0 post-reload GET served generation %d, want 1", g)
	}
}

func TestEdgeCacheBound(t *testing.T) {
	s := buildSchema(t)
	g := genSiteData(4)
	f := newTestFleet(t, s, g, 2, 1)
	e := NewEdge(f)
	e.MaxEntries = 4
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	refs := crawlRefs(t, newReference(t, s, g))
	if len(refs) < 8 {
		t.Fatalf("site too small for eviction test: %d pages", len(refs))
	}
	for _, r := range refs {
		if status, _, _ := get(t, ts, PageURL(r), nil); status != http.StatusOK {
			t.Fatalf("GET %s = %d", PageURL(r), status)
		}
	}
	if n := e.CacheSize(); n > 4 {
		t.Fatalf("cache grew to %d entries past MaxEntries=4", n)
	}
}

func TestEdgeBadRequests(t *testing.T) {
	s := buildSchema(t)
	f := newTestFleet(t, s, genSiteData(5), 1, 1)
	ts := httptest.NewServer(NewEdge(f).Handler())
	defer ts.Close()

	if status, _, _ := get(t, ts, "/page/Pub;zzz", nil); status != http.StatusBadRequest {
		t.Errorf("undecodable key = %d, want 400", status)
	}
	if status, _, _ := get(t, ts, "/page/Nope", nil); status != http.StatusNotFound {
		t.Errorf("unknown page fn = %d, want 404", status)
	}
	if status, _, _ := get(t, ts, "/nosuchpath", nil); status != http.StatusNotFound {
		t.Errorf("unknown path = %d, want 404", status)
	}
}

func TestEdgeHealthz(t *testing.T) {
	s := buildSchema(t)
	f := newTestFleet(t, s, genSiteData(6), 1, 1)
	ts := httptest.NewServer(NewEdge(f).Handler())
	defer ts.Close()

	status, hdr, body := get(t, ts, "/healthz", nil)
	if status != http.StatusOK {
		t.Fatalf("healthz = %d", status)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("healthz Content-Type = %q", ct)
	}
	if body == "" {
		t.Fatal("healthz returned empty body")
	}
}

// TestEdgeEvictsLeastRecentlyUsed fills the page cache past MaxEntries
// with lookups and re-stores interleaved, and checks against a model
// LRU list that exactly the least recently used keys were evicted and
// that an older generation never replaces a newer cached entry.
func TestEdgeEvictsLeastRecentlyUsed(t *testing.T) {
	const n = 8
	e := &Edge{MaxEntries: n}
	e.init()
	var model []string // least recently used first
	touch := func(k string) {
		for i, m := range model {
			if m == k {
				model = append(model[:i], model[i+1:]...)
				break
			}
		}
		model = append(model, k)
	}
	gens := map[string]int64{}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 2000; step++ {
		k := fmt.Sprintf("k%d", rng.Intn(3*n))
		_, cached := gens[k]
		switch op := rng.Intn(3); {
		case op == 0:
			ent := e.lookup(k)
			if (ent != nil) != cached {
				t.Fatalf("step %d: lookup(%s) hit=%v, model says %v", step, k, ent != nil, cached)
			}
			if cached {
				if ent.gen != gens[k] {
					t.Fatalf("step %d: lookup(%s) gen %d, want %d", step, k, ent.gen, gens[k])
				}
				touch(k)
			}
		case cached && op == 1:
			// A slow fetch of an older generation is discarded untouched.
			e.store(k, &edgeEntry{gen: gens[k] - 1})
		default:
			gen := gens[k] + int64(rng.Intn(2))
			e.store(k, &edgeEntry{gen: gen})
			if !cached && len(model) == n {
				delete(gens, model[0])
				model = model[1:]
			}
			gens[k] = gen
			touch(k)
		}
		if e.CacheSize() != len(model) {
			t.Fatalf("step %d: cache holds %d entries, model %d", step, e.CacheSize(), len(model))
		}
		for _, m := range model {
			if _, ok := e.cache.Peek(m); !ok {
				t.Fatalf("step %d: %s evicted, but the least recently used was %s", step, m, model[0])
			}
		}
	}
}

func TestFailRequestSanitizesErrors(t *testing.T) {
	s, g := buildSchema(t), genSiteData(1)
	var logged bytes.Buffer
	fetchErr := func(err error) *httptest.ResponseRecorder {
		f := newTestFleet(t, s, g, 1, 1)
		f.attempt = func(context.Context, int, int, string, dynamic.PageRef) (string, int64, error) {
			return "", 0, err
		}
		e := NewEdge(f)
		e.Logger = log.New(&logged, "", 0)
		w := httptest.NewRecorder()
		e.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/", nil))
		return w
	}

	if w := fetchErr(fmt.Errorf("page: %w", context.DeadlineExceeded)); w.Code != http.StatusGatewayTimeout {
		t.Errorf("deadline: status = %d", w.Code)
	}

	// A client disconnect gets no response body: nobody is listening.
	if w := fetchErr(fmt.Errorf("page: %w", context.Canceled)); w.Body.Len() != 0 {
		t.Errorf("cancel: wrote body %q", w.Body.String())
	}

	// Internal errors are logged in full but the client sees only a
	// generic message — error strings can embed data values and internals.
	w := fetchErr(errors.New("confidential: /etc/site/pubs.ddl:17"))
	if w.Code != http.StatusInternalServerError {
		t.Errorf("internal: status = %d", w.Code)
	}
	if got := w.Body.String(); strings.Contains(got, "confidential") || !strings.Contains(got, "internal server error") {
		t.Errorf("internal: body = %q", got)
	}
	if !strings.Contains(logged.String(), "confidential: /etc/site/pubs.ddl:17") {
		t.Error("error detail missing from server-side log")
	}
}
