package fleet

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"

	"strudel/internal/dynamic"
	"strudel/internal/graph"
	"strudel/internal/schema"
	"strudel/internal/struql"
	"strudel/internal/template"
)

// The test harness: a seeded random site (data graph + fixed site
// definition with several page types), a reference single-evaluator
// server (the direct-EvalWhere answer every fleet/cache/transport
// configuration must reproduce byte for byte), and helpers to crawl the
// page space and probe edges.

const oracleSiteQuery = `
create Root()
link Root() -> "title" -> "Oracle Site"

where Pubs(x)
create Pub(x)
link Root() -> "pub" -> Pub(x), Pub(x) -> "self" -> x
{
  where x -> "title" -> t
  link Pub(x) -> "title" -> t
}
{
  where x -> "year" -> y
  create Year(y)
  link Year(y) -> "year" -> y,
       Year(y) -> "has" -> Pub(x),
       Root() -> "years" -> Year(y)
}
{
  where x -> "tag" -> g
  create Tag(g)
  link Tag(g) -> "tag" -> g,
       Tag(g) -> "member" -> Pub(x),
       Root() -> "tags" -> Tag(g)
}
`

// testRand is the same self-contained LCG the struql oracle uses, so
// fleet test corpora never shift under math/rand changes.
type testRand struct{ s uint64 }

func newTestRand(seed uint64) *testRand {
	return &testRand{s: seed*2654435761 + 0x9e3779b97f4a7c15}
}

func (r *testRand) n(k int) int {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return int((r.s >> 33) % uint64(k))
}

// genSiteData builds a seeded random publications graph: varying record
// counts, shared years and tags (so index pages fan out), occasional
// float scores and missing attributes.
func genSiteData(seed uint64) *graph.Graph {
	r := newTestRand(seed)
	g := graph.New()
	n := 8 + r.n(24)
	for i := 0; i < n; i++ {
		oid := graph.OID(fmt.Sprintf("pub%02d", i))
		g.AddToCollection("Pubs", oid)
		g.AddEdge(oid, "title", graph.NewString(fmt.Sprintf("Title %02d seed%d", i, seed%97)))
		g.AddEdge(oid, "year", graph.NewInt(int64(1990+r.n(8))))
		for t := r.n(3); t > 0; t-- {
			g.AddEdge(oid, "tag", graph.NewString([]string{"db", "web", "lang", "sys"}[r.n(4)]))
		}
		if r.n(4) == 0 {
			g.AddEdge(oid, "score", graph.NewFloat(float64(r.n(100))/4))
		}
	}
	return g
}

// mutateSiteData returns a modified copy of a site graph — the "hot
// reload" edit: one new publication, one retitled, one year moved.
func mutateSiteData(seed uint64) *graph.Graph {
	g := genSiteData(seed)
	r := newTestRand(seed ^ 0xdeadbeef)
	oid := graph.OID(fmt.Sprintf("pubNEW%d", r.n(100)))
	g.AddToCollection("Pubs", oid)
	g.AddEdge(oid, "title", graph.NewString("Hot Reloaded"))
	g.AddEdge(oid, "year", graph.NewInt(int64(1998)))
	g.AddEdge("pub00", "title", graph.NewString("Retitled by reload"))
	g.AddEdge("pub01", "year", graph.NewInt(2001))
	return g
}

// buildSchema parses the oracle site definition.
func buildSchema(t testing.TB) *schema.Schema {
	t.Helper()
	return schema.Build(struql.MustParse(oracleSiteQuery))
}

// newReference builds the single-evaluator reference renderer over a data
// graph: a plain dynamic.Renderer whose only fleet-ism is the page-key
// URL scheme, so its bytes are directly comparable with edge responses.
func newReference(t testing.TB, s *schema.Schema, g *graph.Graph) *dynamic.Renderer {
	t.Helper()
	ev := dynamic.NewEvaluator(s, g.Freeze())
	return dynamic.NewRenderer(ev, template.NewSet(), PageURL)
}

// crawlRefs walks the reference evaluator's page space breadth-first
// from the entry points and returns every reachable page ref.
func crawlRefs(t testing.TB, srv *dynamic.Renderer) []dynamic.PageRef {
	t.Helper()
	var out []dynamic.PageRef
	seen := map[string]bool{}
	queue := srv.Ev.EntryPoints()
	for len(queue) > 0 {
		ref := queue[0]
		queue = queue[1:]
		key := EncodeRef(ref)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, ref)
		pd, err := srv.Ev.Page(ref)
		if err != nil {
			t.Fatalf("crawl %s: %v", key, err)
		}
		queue = append(queue, srv.Ev.Links(pd)...)
	}
	return out
}

// newTestFleet builds a fleet (and the indexed source whose snapshot
// its replicas share) over a data graph.
func newTestFleet(t testing.TB, s *schema.Schema, g *graph.Graph, shards, replicas int) *Fleet {
	t.Helper()
	f, err := New(Config{Schema: s, Shards: shards, Replicas: replicas}, g.Freeze())
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	return f
}

// get performs one GET against a handler-backed test server, returning
// status, headers, and body.
func get(t testing.TB, ts *httptest.Server, path string, hdr map[string]string) (int, http.Header, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, resp.Header, string(b)
}

// quiet silences an edge's server-side error log (chaos tests produce
// expected 503s by the hundred).
func quiet(e *Edge) *Edge {
	e.Logger = log.New(io.Discard, "", 0)
	return e
}

// readAll drains and closes a response body.
func readAll(t testing.TB, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return string(b)
}

var etagGenRe = regexp.MustCompile(`^"g(\d+)-`)

// etagGen extracts the generation from a generation-scoped ETag.
func etagGen(t testing.TB, etag string) int64 {
	t.Helper()
	m := etagGenRe.FindStringSubmatch(etag)
	if m == nil {
		t.Fatalf("ETag %q is not generation-scoped", etag)
	}
	g, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatalf("ETag %q: %v", etag, err)
	}
	return g
}
