package queryapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"strudel/internal/fleet"
	"strudel/internal/graph"
	"strudel/internal/obs"
	"strudel/internal/qgen"
	"strudel/internal/schema"
	"strudel/internal/spine"
	"strudel/internal/struql"
)

// Introspection endpoints: generation-stamped JSON, ETag/304 semantics,
// and the planner's EXPLAIN over HTTP.

func getJSON(t *testing.T, url string, hdr map[string]string) (int, http.Header, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var m map[string]any
	if len(body) > 0 {
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("GET %s: non-JSON body (%v): %s", url, err, body)
		}
	}
	return resp.StatusCode, resp.Header, m
}

// TestSchemaLabels checks /schema/labels against the snapshot's label
// statistics, for a fleet built on a snapshot and for one built on a
// plain map graph: every source is read through its snapshot, so both
// report real distinct source and target counts.
func TestSchemaLabels(t *testing.T) {
	g := qgen.Graph(5)
	ix := g.Freeze()
	for _, tc := range []struct {
		name string
		src  struql.Source
	}{{"snapshot", ix}, {"plain-graph", g}} {
		t.Run(tc.name, func(t *testing.T) { checkSchemaLabels(t, ix, tc.src) })
	}
}

func checkSchemaLabels(t *testing.T, ix *graph.Frozen, src struql.Source) {
	_, ts := newQueryServer(t, newSingle(t, src), generous())

	code, hdr, m := getJSON(t, ts.URL+"/schema/labels", nil)
	if code != http.StatusOK {
		t.Fatalf("labels = %d", code)
	}
	if m["generation"].(float64) != 0 {
		t.Fatalf("generation = %v, want 0", m["generation"])
	}
	labels := m["labels"].([]any)
	if len(labels) != len(ix.Labels()) {
		t.Fatalf("/schema/labels lists %d labels, the snapshot has %d", len(labels), len(ix.Labels()))
	}
	for _, l := range labels {
		info := l.(map[string]any)
		label := info["label"].(string)
		count, sources, targets := ix.LabelStats(label)
		got := [3]int{int(info["count"].(float64)), int(info["sources"].(float64)), int(info["targets"].(float64))}
		if want := [3]int{count, sources, targets}; got != want || count == 0 {
			t.Fatalf("label %q (count, sources, targets) = %v, the snapshot says %v", label, got, want)
		}
	}

	// Conditional refetch: 304 with the same validator.
	etag := hdr.Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, "\"sg0-") {
		t.Fatalf("labels ETag = %q, want a generation-scoped validator", etag)
	}
	code2, _, _ := getJSON(t, ts.URL+"/schema/labels", map[string]string{"If-None-Match": etag})
	if code2 != http.StatusNotModified {
		t.Fatalf("conditional labels = %d, want 304", code2)
	}
	// POST is rejected.
	code3, _, body := postJSON(t, ts.URL+"/schema/labels", map[string]any{}, nil)
	if code3 != http.StatusMethodNotAllowed {
		t.Fatalf("POST labels = %d (%s), want 405", code3, body)
	}
}

func TestSchemaCollectionsAndDataguide(t *testing.T) {
	ix := qgen.Graph(5).Freeze()
	single := newSingle(t, ix)
	_, ts := newQueryServer(t, single, generous())

	code, _, m := getJSON(t, ts.URL+"/schema/collections", nil)
	if code != http.StatusOK {
		t.Fatalf("collections = %d", code)
	}
	found := map[string]int{}
	for _, c := range m["collections"].([]any) {
		info := c.(map[string]any)
		found[info["name"].(string)] = int(info["size"].(float64))
	}
	if found["Items"] != ix.CollectionSize("Items") || found["Items"] == 0 {
		t.Fatalf("Items size = %d, index says %d", found["Items"], ix.CollectionSize("Items"))
	}

	code, _, m = getJSON(t, ts.URL+"/schema/dataguide?depth=2", nil)
	if code != http.StatusOK {
		t.Fatalf("dataguide = %d", code)
	}
	paths := m["paths"].([]any)
	if len(paths) == 0 {
		t.Fatalf("dataguide has no paths")
	}
	seen := map[string]bool{}
	for _, p := range paths {
		seen[p.(string)] = true
		if strings.Count(p.(string), ".") > 1 {
			t.Fatalf("depth=2 dataguide contains deeper path %q", p)
		}
	}
	if !seen["id"] || !seen["year"] {
		t.Fatalf("dataguide misses root labels: %v", seen)
	}

	code, _, _ = getJSON(t, ts.URL+"/schema/dataguide?depth=99", nil)
	if code != http.StatusBadRequest {
		t.Fatalf("depth=99 = %d, want 400", code)
	}

	// Reload invalidates the validator: same URL, new generation, 200.
	_, hdr, _ := getJSON(t, ts.URL+"/schema/dataguide?depth=2", nil)
	etag := hdr.Get("ETag")
	single.SwapData(qgen.Graph(77).Freeze(), nil)
	code, hdr, m = getJSON(t, ts.URL+"/schema/dataguide?depth=2", map[string]string{"If-None-Match": etag})
	if code != http.StatusOK {
		t.Fatalf("post-reload conditional dataguide = %d, want 200 (validator is stale)", code)
	}
	if m["generation"].(float64) != 1 {
		t.Fatalf("post-reload generation = %v, want 1", m["generation"])
	}
}

func TestQueryExplain(t *testing.T) {
	svc, ts := newQueryServer(t, newSingle(t, qgen.Graph(5).Freeze()), generous())

	// A bare where clause is wrapped and explained.
	code, _, body := postJSON(t, ts.URL+"/query/explain",
		QueryRequest{Query: `where Items(x), x -> "year" -> y, y > 1993`}, nil)
	if code != http.StatusOK {
		t.Fatalf("explain = %d: %s", code, body)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("explain body: %v", err)
	}
	text, _ := m["explain"].(string)
	if !strings.Contains(text, "block") || len(text) < 20 {
		t.Fatalf("explain text looks empty: %q", text)
	}

	// A full query (with construction clauses) is accepted too.
	code, _, body = postJSON(t, ts.URL+"/query/explain",
		QueryRequest{Query: qgen.RichQuery(4)}, nil)
	if code != http.StatusOK {
		t.Fatalf("explain full query = %d: %s", code, body)
	}

	// Garbage is a typed parse error.
	code, _, e := queryError(t, ts, "/query/explain", QueryRequest{Query: "where -> ->"})
	if code != http.StatusBadRequest || e.Code != spine.CodeParse {
		t.Fatalf("explain garbage = %d/%s, want 400/%s", code, e.Code, spine.CodeParse)
	}

	if n := svc.Obs.Explains.Load(); n != 2 {
		t.Fatalf("explains counter = %d, want 2", n)
	}
}

// TestWeakValidatorsNotModified: If-None-Match compares weakly, so a
// validator a client or proxy weakened to W/"…" still earns a 304 from
// /query and /schema/labels, alone or inside a list.
func TestWeakValidatorsNotModified(t *testing.T) {
	_, ts := newQueryServer(t, newSingle(t, qgen.Graph(5).Freeze()), generous())
	req := QueryRequest{Query: qgen.WhereClause(3), PageSize: 5}
	code, hdr, body := postJSON(t, ts.URL+"/query", req, nil)
	if code != http.StatusOK {
		t.Fatalf("/query = %d: %s", code, body)
	}
	queryTag := hdr.Get("ETag")
	code, hdr, _ = getJSON(t, ts.URL+"/schema/labels", nil)
	if code != http.StatusOK {
		t.Fatalf("/schema/labels = %d", code)
	}
	labelsTag := hdr.Get("ETag")

	for _, inm := range []func(tag string) string{
		func(tag string) string { return "W/" + tag },
		func(tag string) string { return `"other", W/` + tag },
	} {
		if code, _, body := postJSON(t, ts.URL+"/query", req, map[string]string{"If-None-Match": inm(queryTag)}); code != http.StatusNotModified {
			t.Errorf("/query with If-None-Match %s = %d, want 304: %s", inm(queryTag), code, body)
		}
		if code, _, _ := getJSON(t, ts.URL+"/schema/labels", map[string]string{"If-None-Match": inm(labelsTag)}); code != http.StatusNotModified {
			t.Errorf("/schema/labels with If-None-Match %s = %d, want 304", inm(labelsTag), code)
		}
	}
}

// TestIntrospectionMemoKeepsMostRecentlyUsed fills the introspection
// memo past its 64 entries (ten endpoints a generation, over seven
// generations) while re-reading one payload after every insert. That
// payload is always the most recently used, so it must be served from
// the memo every time — no fleet evaluation — and unchanged.
func TestIntrospectionMemoKeepsMostRecentlyUsed(t *testing.T) {
	m := &obs.FleetMetrics{}
	f, err := fleet.New(fleet.Config{Schema: schema.Build(struql.MustParse(querySchema)),
		Shards: 1, Replicas: 1, Obs: m}, qgen.Graph(5).Freeze())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newQueryServer(t, f, generous())
	others := []string{"/schema/collections"}
	for d := 1; d <= 8; d++ {
		others = append(others, fmt.Sprintf("/schema/dataguide?depth=%d", d))
	}
	entries := 0
	for gen := 0; gen < 7; gen++ {
		if gen > 0 {
			f.SwapData(qgen.Graph(uint64(gen)).Freeze(), nil)
		}
		_, _, labels := getJSON(t, ts.URL+"/schema/labels", nil)
		entries++
		for _, p := range others {
			if code, _, _ := getJSON(t, ts.URL+p, nil); code != http.StatusOK {
				t.Fatalf("%s = %d", p, code)
			}
			entries++
			before := m.ShardFetches.Load()
			_, _, again := getJSON(t, ts.URL+"/schema/labels", nil)
			if n := m.ShardFetches.Load() - before; n != 0 {
				t.Fatalf("generation %d, %d memo entries: the most recently used payload was recomputed (%d fleet evaluations)",
					gen, entries, n)
			}
			if !reflect.DeepEqual(again, labels) {
				t.Fatalf("generation %d: memoized labels payload changed", gen)
			}
		}
	}
	if entries <= 64 {
		t.Fatalf("only %d memo entries; the test must pass the bound", entries)
	}
}
