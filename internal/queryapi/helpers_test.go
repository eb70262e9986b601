package queryapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"strudel/internal/fleet"
	"strudel/internal/graph"
	"strudel/internal/qgen"
	"strudel/internal/schema"
	"strudel/internal/spine"
	"strudel/internal/struql"
)

// The harness: services over sharded and 1×1 fleets, an NDJSON
// client, and the in-process reference every HTTP answer must match
// byte for byte. Query and graph corpora come from internal/qgen — the
// exact generators the struql differential oracle runs, so the HTTP
// surface is tested over the same query space the evaluator is pinned
// on.

// querySchema is a minimal site: the query API needs a fleet, the fleet
// needs a schema, but these tests never fetch a page.
const querySchema = `create Root()
link Root() -> "title" -> "Query API Test Site"`

func newFleet(t testing.TB, src struql.Source, shards, replicas int) *fleet.Fleet {
	t.Helper()
	s := schema.Build(struql.MustParse(querySchema))
	f, err := fleet.New(fleet.Config{Schema: s, Shards: shards, Replicas: replicas}, src)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	return f
}

func newFleetBackend(t testing.TB, g *graph.Graph, shards, replicas int) *fleet.Fleet {
	t.Helper()
	return newFleet(t, g.Freeze(), shards, replicas)
}

// newSingle is the single-server backend: a 1×1 fleet over a source.
func newSingle(t testing.TB, src struql.Source) *fleet.Fleet {
	t.Helper()
	return newFleet(t, src, 1, 1)
}

// newQueryServer builds a Service over a backend and serves it.
func newQueryServer(t testing.TB, b *fleet.Fleet, lim Limits) (*Service, *httptest.Server) {
	t.Helper()
	svc := &Service{Backend: b, Limits: lim}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

// generous are oracle limits no generated query should ever trip.
func generous() Limits {
	return Limits{MaxRows: 4 << 20, MaxNFAStates: 1 << 20, MaxPageSize: 1 << 20}
}

// postJSON POSTs a JSON body and returns status, headers, and body.
func postJSON(t testing.TB, url string, body any, hdr map[string]string) (int, http.Header, string) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, resp.Header, string(b)
}

// page is one parsed /query response.
type page struct {
	header headerMsg
	rows   []string // marshaled row lines, exactly as received
	end    endMsg
}

// parsePage splits and checks one NDJSON response body.
func parsePage(t testing.TB, body string) page {
	t.Helper()
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("NDJSON response has %d lines, want >= 2:\n%s", len(lines), body)
	}
	var p page
	if err := json.Unmarshal([]byte(lines[0]), &p.header); err != nil || p.header.Kind != "header" {
		t.Fatalf("first line is not a header (%v): %s", err, lines[0])
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p.end); err != nil || p.end.Kind != "end" {
		t.Fatalf("last line is not an end marker (%v): %s", err, lines[len(lines)-1])
	}
	p.rows = lines[1 : len(lines)-1]
	if len(p.rows) != p.end.Rows {
		t.Fatalf("end marker claims %d rows, page has %d", p.end.Rows, len(p.rows))
	}
	return p
}

// queryPage POSTs one request and parses the NDJSON page (status must
// be 200).
func queryPage(t testing.TB, ts *httptest.Server, req QueryRequest) page {
	t.Helper()
	code, _, body := postJSON(t, ts.URL+"/query", req, nil)
	if code != http.StatusOK {
		t.Fatalf("POST /query = %d, want 200; body:\n%s\nquery:\n%s", code, body, req.Query)
	}
	return parsePage(t, body)
}

// queryError POSTs one request and decodes the typed error envelope.
func queryError(t testing.TB, ts *httptest.Server, path string, req QueryRequest) (int, http.Header, *spine.Error) {
	t.Helper()
	code, hdr, body := postJSON(t, ts.URL+path, req, nil)
	if code == http.StatusOK {
		t.Fatalf("POST %s = 200, want an error; body:\n%s", path, body)
	}
	var env struct {
		Error *spine.Error `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil || env.Error == nil || env.Error.Code == "" {
		t.Fatalf("POST %s: error body is not a typed envelope (%v):\n%s", path, err, body)
	}
	return code, hdr, env.Error
}

// walkQuery pages through the whole result via cursors, asserting the
// generation never changes mid-walk, and returns every row line plus
// the first header.
func walkQuery(t testing.TB, ts *httptest.Server, req QueryRequest) (headerMsg, []string) {
	t.Helper()
	req.Cursor = ""
	var all []string
	var first headerMsg
	for hop := 0; ; hop++ {
		p := queryPage(t, ts, req)
		if hop == 0 {
			first = p.header
		} else if p.header.Generation != first.Generation {
			t.Fatalf("walk switched generation mid-stream: %d then %d", first.Generation, p.header.Generation)
		}
		all = append(all, p.rows...)
		if p.end.Done {
			if p.end.NextCursor != "" {
				t.Fatalf("done page still carries a cursor")
			}
			return first, all
		}
		if p.end.NextCursor == "" {
			t.Fatalf("not-done page carries no cursor")
		}
		req.Cursor = p.end.NextCursor
		if hop > 100000 {
			t.Fatalf("cursor walk did not terminate")
		}
	}
}

// inProcessRows is the reference: EvalWhere on the same source, encoded
// by the same deterministic encoder the service uses on replicas.
func inProcessRows(t testing.TB, src struql.Source, query string, sel []string) ([]string, []string) {
	t.Helper()
	conds, err := struql.ParseWhere(query)
	if err != nil {
		t.Fatalf("ParseWhere: %v\n%s", err, query)
	}
	b, err := struql.EvalWhere(conds, src, nil, nil)
	if err != nil {
		t.Fatalf("EvalWhere: %v\n%s", err, query)
	}
	payload, err := encodeResult(b, sel)
	if err != nil {
		t.Fatalf("encodeResult: %v\n%s", err, query)
	}
	res, err := parseResult(payload, 0)
	if err != nil {
		t.Fatalf("parseResult: %v", err)
	}
	return res.vars, res.rows
}

// oracleSite is one generated graph with its service endpoints.
type oracleSite struct {
	ix *graph.Frozen // the in-process reference source
	ts *httptest.Server
}

func newOracleSite(t testing.TB, seed uint64, shards, replicas int) *oracleSite {
	t.Helper()
	g := qgen.Graph(seed)
	fl := newFleetBackend(t, g, shards, replicas)
	_, ts := newQueryServer(t, fl, generous())
	return &oracleSite{ix: g.Freeze(), ts: ts}
}

func sameRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
