package fleet

import (
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"strudel/internal/faultnet"
	"strudel/internal/htmlgen"
	"strudel/internal/obs"
)

// grayFleet builds a fleet with a metrics sink and a gray config tuned
// for fast tests.
func grayFleet(t testing.TB, seed uint64, shards, replicas int, m *obs.FleetMetrics, gray GrayConfig) *Fleet {
	t.Helper()
	s := buildSchema(t)
	f, err := New(Config{Schema: s, Shards: shards, Replicas: replicas, Obs: m, Gray: gray},
		genSiteData(seed).Freeze())
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	return f
}

func TestReplicaServerIntegrityHeaders(t *testing.T) {
	f := grayFleet(t, 3, 1, 1, nil, GrayConfig{})
	rts := httptest.NewServer(ReplicaHandler(f.Replica(0, 0)))
	defer rts.Close()

	ref := f.EntryPoints()[0]
	resp, err := rts.Client().Get(rts.URL + "/page/" + urlEscapeKey(EncodeRef(ref)))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get(genHeader) == "" {
		t.Fatal("generation header missing")
	}
	if got, want := resp.Header.Get(bodyHashHeader), htmlgen.PageHash(body); got != want {
		t.Fatalf("body hash header %q, want %q", got, want)
	}
}

func TestReplicaServerRetryAfterHint(t *testing.T) {
	f := grayFleet(t, 3, 1, 1, nil, GrayConfig{})
	srv := &ReplicaServer{Replica: f.Replica(0, 0), RetryAfter: 7 * time.Second}
	rts := httptest.NewServer(srv.Handler())
	defer rts.Close()

	f.Replica(0, 0).Kill()
	ref := f.EntryPoints()[0]
	resp, err := rts.Client().Get(rts.URL + "/page/" + urlEscapeKey(EncodeRef(ref)))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After %q, want \"7\"", got)
	}
}

// TestHeaderCountsSaturate pins the two numeric headers a replica hop
// parses: a count too large for a time.Duration saturates instead of
// wrapping negative, so a huge deadline still renders (not an instant
// 504) and a huge Retry-After stays the longest hint, not none.
func TestHeaderCountsSaturate(t *testing.T) {
	for _, ms := range []string{"", "5000", "9223372036855", "9223372036854775807"} {
		// A fresh fleet per case: a page cached by an earlier case would
		// render without ever reading the deadline.
		f := grayFleet(t, 3, 1, 1, nil, GrayConfig{})
		req := httptest.NewRequest(http.MethodGet, PageURL(f.EntryPoints()[0]), nil)
		req.Header.Set(deadlineHeader, ms)
		w := httptest.NewRecorder()
		ReplicaHandler(f.Replica(0, 0)).ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Errorf("replica GET with %s %q = %d, want 200: %s", deadlineHeader, ms, w.Code, w.Body.String())
		}
	}
	for v, want := range map[string]time.Duration{
		"": 0, "x": 0, "-1": 0, "0": 0, "7": 7 * time.Second,
		"9223372037":          math.MaxInt64,
		"9223372036854775807": math.MaxInt64,
	} {
		if got := parseRetryAfter(v); got != want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", v, got, want)
		}
	}
}

func TestHTTPTransportPropagatesDeadlineHeader(t *testing.T) {
	f := grayFleet(t, 3, 1, 1, nil, GrayConfig{})
	gotMs := make(chan string, 1)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case gotMs <- r.Header.Get(deadlineHeader):
		default:
		}
		body := "<html>ok</html>"
		w.Header().Set(genHeader, "0")
		w.Header().Set(bodyHashHeader, htmlgen.PageHash(body))
		io.WriteString(w, body)
	}))
	defer backend.Close()

	if err := f.ServeOverHTTP([][]string{{backend.URL}}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	ref := f.EntryPoints()[0]
	if _, _, err := f.Fetch(ctx, 0, EncodeRef(ref), ref); err != nil {
		t.Fatalf("fetch: %v", err)
	}
	hdr := <-gotMs
	ms, err := strconv.ParseInt(hdr, 10, 64)
	if err != nil {
		t.Fatalf("deadline header %q not parseable: %v", hdr, err)
	}
	if ms <= 0 || ms > 3000 {
		t.Fatalf("deadline header %dms, want within the request's 3s budget", ms)
	}
}

func TestEdgeRetryAfterDerivedFromBackendHint(t *testing.T) {
	var m obs.FleetMetrics
	f := grayFleet(t, 5, 1, 2, &m, GrayConfig{DisableHedge: true})
	urls := [][]string{nil}
	for i := 0; i < 2; i++ {
		srv := &ReplicaServer{Replica: f.Replica(0, i), RetryAfter: 7 * time.Second}
		rts := httptest.NewServer(srv.Handler())
		defer rts.Close()
		urls[0] = append(urls[0], rts.URL)
		f.Replica(0, i).Kill()
	}
	if err := f.ServeOverHTTP(urls); err != nil {
		t.Fatal(err)
	}
	e := quiet(NewEdge(f))
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	status, hdr, _ := get(t, ts, PageURL(f.EntryPoints()[0]), nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", status)
	}
	secs, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q: %v", hdr.Get("Retry-After"), err)
	}
	if secs < 7 {
		t.Fatalf("Retry-After %ds, want at least the backend's 7s hint", secs)
	}
}

func TestHTTPTransportChecksumFailover(t *testing.T) {
	var m obs.FleetMetrics
	f := grayFleet(t, 5, 1, 2, &m, GrayConfig{})
	// Replica 0's responses are corrupted on the wire, every time;
	// replica 1 is clean.
	corrupt := httptest.NewServer(&faultnet.Proxy{
		Inner: ReplicaHandler(f.Replica(0, 0)),
		Sched: faultnet.Script{{CorruptAfter: 20, CorruptLen: 8}},
	})
	defer corrupt.Close()
	clean := httptest.NewServer(ReplicaHandler(f.Replica(0, 1)))
	defer clean.Close()

	if err := f.ServeOverHTTP([][]string{{corrupt.URL, clean.URL}}); err != nil {
		t.Fatal(err)
	}
	ref := f.EntryPoints()[0]
	want, _, err := newReference(t, buildSchema(t), genSiteData(5)).RenderPageGen(context.Background(), ref)
	if err != nil {
		t.Fatalf("reference render: %v", err)
	}
	for i := 0; i < 6; i++ {
		body, _, err := f.Fetch(context.Background(), 0, EncodeRef(ref), ref)
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if body != want {
			t.Fatalf("fetch %d: corrupted bytes served", i)
		}
	}
	if m.ChecksumFailures.Load() == 0 {
		t.Fatal("the corrupt replica was never caught by the checksum")
	}
}

// TestHTTPTransportStalledBodyFailsOver is the stalled-replica
// regression: a backend that sends headers and part of the body, then
// wedges, must not hold the fetch hostage — the attempt deadline (or a
// hedge) moves the request to a sibling.
func TestHTTPTransportStalledBodyFailsOver(t *testing.T) {
	var m obs.FleetMetrics
	f := grayFleet(t, 5, 1, 2, &m, GrayConfig{AttemptTimeout: 300 * time.Millisecond})
	stalled := httptest.NewServer(&faultnet.Proxy{
		Inner: ReplicaHandler(f.Replica(0, 0)),
		Sched: faultnet.Script{{StallAfter: 30, Stall: 30 * time.Second}},
	})
	defer stalled.Close()
	clean := httptest.NewServer(ReplicaHandler(f.Replica(0, 1)))
	defer clean.Close()

	if err := f.ServeOverHTTP([][]string{{stalled.URL, clean.URL}}); err != nil {
		t.Fatal(err)
	}
	ref := f.EntryPoints()[0]
	want, _, err := newReference(t, buildSchema(t), genSiteData(5)).RenderPageGen(context.Background(), ref)
	if err != nil {
		t.Fatalf("reference render: %v", err)
	}
	for i := 0; i < 4; i++ {
		start := time.Now()
		body, _, err := f.Fetch(context.Background(), 0, EncodeRef(ref), ref)
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if body != want {
			t.Fatalf("fetch %d: wrong bytes", i)
		}
		if el := time.Since(start); el > 5*time.Second {
			t.Fatalf("fetch %d took %v: the stall leaked past the attempt bound", i, el)
		}
	}
}

// TestHTTPTransportRequiresProtocolHeaders: a 200 without a parseable
// generation header or without a body hash is not a replica's answer —
// its bytes can be neither verified nor labelled with a generation — so
// it fails over to a clean sibling instead of being served (and cached
// under a "g0-…" ETag) unverified.
func TestHTTPTransportRequiresProtocolHeaders(t *testing.T) {
	const imposter = "<html>not a replica</html>"
	for name, hdr := range map[string]map[string]string{
		"no headers":     {},
		"no body hash":   {genHeader: "0"},
		"no generation":  {bodyHashHeader: htmlgen.PageHash(imposter)},
		"bad generation": {genHeader: "g0", bodyHashHeader: htmlgen.PageHash(imposter)},
	} {
		t.Run(name, func(t *testing.T) {
			f := grayFleet(t, 5, 1, 2, nil, GrayConfig{DisableHedge: true})
			var hits atomic.Int32
			other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				for k, v := range hdr {
					w.Header().Set(k, v)
				}
				io.WriteString(w, imposter)
			}))
			defer other.Close()
			clean := httptest.NewServer(ReplicaHandler(f.Replica(0, 1)))
			defer clean.Close()
			if err := f.ServeOverHTTP([][]string{{other.URL, clean.URL}}); err != nil {
				t.Fatal(err)
			}

			ref := f.EntryPoints()[0]
			want, _, err := newReference(t, buildSchema(t), genSiteData(5)).RenderPageGen(context.Background(), ref)
			if err != nil {
				t.Fatalf("reference render: %v", err)
			}
			for i := 0; i < 4; i++ {
				body, gen, err := f.Fetch(context.Background(), 0, EncodeRef(ref), ref)
				if err != nil {
					t.Fatalf("fetch %d: %v", i, err)
				}
				if body != want || gen != 0 {
					t.Fatalf("fetch %d: served %q at generation %d, want the clean replica's page at 0", i, body, gen)
				}
			}
			if hits.Load() == 0 {
				t.Fatal("routing never tried the header-less backend")
			}
		})
	}
}

// TestServeOverHTTPRejectsWrongShape: the URL grid must name one server
// per replica, Shards × Replicas; a rejected grid leaves the in-process
// transport in place.
func TestServeOverHTTPRejectsWrongShape(t *testing.T) {
	f := grayFleet(t, 3, 2, 2, nil, GrayConfig{})
	for _, urls := range [][][]string{
		nil,
		{{"a", "b"}},
		{{"a", "b"}, {"c"}},
		{{"a", "b"}, {"c", "d", "e"}},
		{{"a", "b"}, {"c", "d"}, {"e", "f"}},
	} {
		if err := f.ServeOverHTTP(urls); err == nil {
			t.Errorf("ServeOverHTTP(%v) accepted a grid for a 2x2 fleet", urls)
		}
	}
	ref := f.EntryPoints()[0]
	key := EncodeRef(ref)
	if _, _, err := f.Fetch(context.Background(), f.Route(key), key, ref); err != nil {
		t.Fatalf("fetch after rejected grids: %v", err)
	}
	if err := f.ServeOverHTTP([][]string{{"a", "b"}, {"c", "d"}}); err != nil {
		t.Fatalf("ServeOverHTTP rejected a 2x2 grid: %v", err)
	}
}

// TestHealthChecksProbeOverHTTP: once a fleet serves over HTTP, its
// health probes cross the wire too. A replica whose server is gone
// fails its probes even though the in-process replica behind it is
// alive.
func TestHealthChecksProbeOverHTTP(t *testing.T) {
	var m obs.FleetMetrics
	f := grayFleet(t, 3, 1, 2, &m, GrayConfig{ProbeInterval: 10 * time.Millisecond})
	var urls []string
	var servers []*httptest.Server
	for i := 0; i < 2; i++ {
		rts := httptest.NewServer(ReplicaHandler(f.Replica(0, i)))
		defer rts.Close()
		urls = append(urls, rts.URL)
		servers = append(servers, rts)
	}
	if err := f.ServeOverHTTP([][]string{urls}); err != nil {
		t.Fatal(err)
	}
	servers[1].Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.StartHealthChecks(ctx)
	deadline := time.Now().Add(5 * time.Second)
	for m.ProbeFailures.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no probe failed in 5s against a closed replica server (%d probes)", m.Probes.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if f.Replica(0, 1).Down() {
		t.Fatal("the in-process replica was killed; only its server should be gone")
	}
}
