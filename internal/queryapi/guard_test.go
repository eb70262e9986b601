package queryapi

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"strudel/internal/graph"
	"strudel/internal/obs"
	"strudel/internal/qgen"
	"strudel/internal/spine"
	"strudel/internal/struql"
)

// Guard trips over HTTP: each evaluator resource guard (rows, NFA
// states, deadline) must surface as a typed error payload with the
// right status, Retry-After only where retrying can help, and an exact
// counter increment visible through the same registry JSON that
// /debug/vars serves in production.

// debugVars renders the registry the way cmd/strudel-serve exports it
// and returns the queryapi group.
func debugVars(t *testing.T, reg *obs.Registry) map[string]any {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(reg.String()))
	}))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatalf("GET vars: %v", err)
	}
	defer resp.Body.Close()
	var all map[string]map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatalf("decode vars: %v", err)
	}
	q, ok := all["queryapi"]
	if !ok {
		t.Fatalf("registry JSON has no queryapi group: %v", all)
	}
	return q
}

func counterIs(t *testing.T, vars map[string]any, key string, want float64) {
	t.Helper()
	got, ok := vars[key].(float64)
	if !ok || got != want {
		t.Fatalf("queryapi.%s = %v, want %v", key, vars[key], want)
	}
}

// TestGuardMaxRows trips the row guard through the full fleet path: a
// cartesian square over Items with a per-request max_rows of 5.
func TestGuardMaxRows(t *testing.T) {
	fl := newFleetBackend(t, qgen.Graph(1), 2, 2)
	svc, ts := newQueryServer(t, fl, generous())
	reg := obs.NewRegistry()
	reg.Register("queryapi", svc.Obs)

	code, hdr, e := queryError(t, ts, "/query",
		QueryRequest{Query: "where Items(x), Items(y)", MaxRows: 5})
	if code != http.StatusUnprocessableEntity || e.Code != spine.CodeMaxRows {
		t.Fatalf("row guard = %d/%s, want 422/%s", code, e.Code, spine.CodeMaxRows)
	}
	if e.Limit != "rows" || e.Max != 5 || e.Used <= e.Max {
		t.Fatalf("row guard payload = limit %q used %d max %d; want rows/>5/5", e.Limit, e.Used, e.Max)
	}
	if ra := hdr.Get("Retry-After"); ra != "" {
		t.Fatalf("422 carries Retry-After %q; retrying an over-limit query cannot help", ra)
	}
	vars := debugVars(t, reg)
	counterIs(t, vars, "guard_rows_trips", 1)
	counterIs(t, vars, "guard_nfa_trips", 0)
	counterIs(t, vars, "requests", 1)
}

// TestGuardNFAStates trips the path-automaton guard with a closure over
// the near-chain graph under a deliberately tiny state budget.
func TestGuardNFAStates(t *testing.T) {
	lim := generous()
	lim.MaxNFAStates = 4
	svc, ts := newQueryServer(t, newSingle(t, qgen.Graph(2).Freeze()), lim)
	reg := obs.NewRegistry()
	reg.Register("queryapi", svc.Obs)

	code, hdr, e := queryError(t, ts, "/query",
		QueryRequest{Query: `where Items(x), x -> ("next"|"ref")* -> v`})
	if code != http.StatusUnprocessableEntity || e.Code != spine.CodeNFAStates {
		t.Fatalf("NFA guard = %d/%s, want 422/%s", code, e.Code, spine.CodeNFAStates)
	}
	if e.Limit != "nfa-states" || e.Max != 4 {
		t.Fatalf("NFA guard payload = limit %q max %d; want nfa-states/4", e.Limit, e.Max)
	}
	if hdr.Get("Retry-After") != "" {
		t.Fatalf("422 carries Retry-After")
	}
	counterIs(t, debugVars(t, reg), "guard_nfa_trips", 1)
}

// TestGuardDeadline trips the evaluation deadline: a 4-way cartesian
// product over a ≥20-node Items extent cannot finish in 1ms, and unlike
// the other guards a deadline IS worth retrying — the payload must say
// so with Retry-After.
func TestGuardDeadline(t *testing.T) {
	var ix *graph.Frozen
	for seed := uint64(1); ; seed++ {
		ix = qgen.Graph(seed).Freeze()
		if ix.CollectionSize("Items") >= 20 {
			break
		}
		if seed > 200 {
			t.Fatalf("no generated graph reaches 20 items; generator changed?")
		}
	}
	lim := generous()
	lim.MaxRows = 1 << 30 // the deadline must trip first, not the row guard
	svc, ts := newQueryServer(t, newSingle(t, ix), lim)
	reg := obs.NewRegistry()
	reg.Register("queryapi", svc.Obs)

	code, hdr, e := queryError(t, ts, "/query", QueryRequest{
		Query:     "where Items(a), Items(b), Items(c), Items(d)",
		TimeoutMS: 1,
	})
	if code != http.StatusGatewayTimeout || e.Code != spine.CodeDeadline {
		t.Fatalf("deadline guard = %d/%s, want 504/%s", code, e.Code, spine.CodeDeadline)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatalf("504 deadline carries no Retry-After; a timed-out query is retryable")
	}
	counterIs(t, debugVars(t, reg), "guard_deadline_trips", 1)
}

// heldBody is a request body whose first Read blocks until released:
// a request reading it holds its inflight slot for as long as the test
// wants, and entered says when it got there.
type heldBody struct {
	entered, release chan struct{}
	r                io.Reader
}

func newHeldBody(payload string) *heldBody {
	return &heldBody{entered: make(chan struct{}), release: make(chan struct{}), r: strings.NewReader(payload)}
}

func (b *heldBody) Read(p []byte) (int, error) {
	select {
	case <-b.entered:
	default:
		close(b.entered)
		<-b.release
	}
	return b.r.Read(p)
}

// TestShedAtMaxInflight: with the gate full, requests are refused with
// a typed 503 + Retry-After before any body is read, and both the
// request and shed counters advance.
func TestShedAtMaxInflight(t *testing.T) {
	svc := &Service{
		Backend:     newSingle(t, qgen.Graph(5).Freeze()),
		Limits:      generous(),
		MaxInflight: 1,
	}
	h := svc.Handler()
	ts := httptest.NewServer(h)
	defer ts.Close()
	reg := obs.NewRegistry()
	reg.Register("queryapi", svc.Obs)

	// Occupy the only slot: a request stalled inside its body read.
	body := newHeldBody(`{"query":"where Items(x)"}`)
	held := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", body))
		held <- rec.Code
	}()
	<-body.entered

	code, hdr, e := queryError(t, ts, "/query", QueryRequest{Query: "where Items(x)"})
	if code != http.StatusServiceUnavailable || e.Code != spine.CodeOverloaded {
		t.Fatalf("shed = %d/%s, want 503/%s", code, e.Code, spine.CodeOverloaded)
	}
	if hdr.Get("Retry-After") != "1" {
		t.Fatalf("shed Retry-After = %q, want 1", hdr.Get("Retry-After"))
	}
	close(body.release) // the held request completes; the service must recover
	if code := <-held; code != http.StatusOK {
		t.Fatalf("held request = %d, want 200", code)
	}
	p := queryPage(t, ts, QueryRequest{Query: "where Items(x)"})
	if p.header.Kind != "header" {
		t.Fatalf("service did not recover after shed")
	}
	vars := debugVars(t, reg)
	counterIs(t, vars, "shed", 1)
	counterIs(t, vars, "requests", 3)
}

// TestTypedBadInput: the 400 taxonomy — parse errors carry the line,
// malformed envelopes and negative knobs are bad_request, wrong method
// is 405 — and every one increments its counter.
func TestTypedBadInput(t *testing.T) {
	svc, ts := newQueryServer(t, newSingle(t, qgen.Graph(5).Freeze()), generous())

	code, _, e := queryError(t, ts, "/query", QueryRequest{Query: "where Items(x), -> ->"})
	if code != http.StatusBadRequest || e.Code != spine.CodeParse || e.Line <= 0 {
		t.Fatalf("parse error = %d/%s line %d, want 400/%s with a line", code, e.Code, e.Line, spine.CodeParse)
	}
	// An unbound filter variable is an analysis error, still typed parse.
	code, _, e = queryError(t, ts, "/query", QueryRequest{Query: "where Items(x), y > 3"})
	if code != http.StatusBadRequest || e.Code != spine.CodeParse {
		t.Fatalf("unbound variable = %d/%s, want 400/%s", code, e.Code, spine.CodeParse)
	}
	code, _, e = queryError(t, ts, "/query", QueryRequest{Query: "where Items(x)", PageSize: -1})
	if code != http.StatusBadRequest || e.Code != spine.CodeBadRequest {
		t.Fatalf("negative page_size = %d/%s, want 400/%s", code, e.Code, spine.CodeBadRequest)
	}
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatalf("GET /query: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query = %d, want 405", resp.StatusCode)
	}
	snap := svc.Obs.Snapshot()
	if snap["parse_errors"].(int64) != 2 || snap["bad_requests"].(int64) < 2 {
		t.Fatalf("error counters = parse %v, bad %v; want 2 and >=2",
			snap["parse_errors"], snap["bad_requests"])
	}
}

// panicSource panics on the first collection scan: a stand-in for any
// bug in evaluation, which runs on a replica goroutine that no handler
// recovery can reach.
type panicSource struct{ struql.Source }

func (panicSource) Collection(string) []graph.OID { panic("secret internal detail") }

// TestQueryPanicIsTyped500: a panic during evaluation answers that one
// query with a sanitized, typed 500 and counts it — the process, and
// the next query, survive.
func TestQueryPanicIsTyped500(t *testing.T) {
	svc, ts := newQueryServer(t, newSingle(t, panicSource{qgen.Graph(5).Freeze()}), generous())
	svc.chain.Logger = log.New(io.Discard, "", 0)
	for i := 0; i < 2; i++ {
		code, _, e := queryError(t, ts, "/query", QueryRequest{Query: "where Items(x)"})
		if code != http.StatusInternalServerError || e.Code != spine.CodeInternal || strings.Contains(e.Message, "secret") {
			t.Fatalf("panicking query = %d/%s %q, want a sanitized 500/%s", code, e.Code, e.Message, spine.CodeInternal)
		}
	}
	if n := svc.Obs.Panics.Load(); n != 2 {
		t.Fatalf("panics counter = %d, want 2", n)
	}
}
