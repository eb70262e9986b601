package spine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"strudel/internal/obs"
	"strudel/internal/struql"
)

// shardDown stands in for a package's own error that knows its slot.
type shardDown struct{ retry time.Duration }

func (e shardDown) Error() string { return "shard down" }
func (e shardDown) TypedError() *Error {
	return &Error{Code: CodeUnavailable, RetryAfter: RetryAfterSeconds(e.retry), Message: "shard down"}
}

// TestClassifyTaxonomy pins the one error → (code, status, Retry-After)
// table every front answers through.
func TestClassifyTaxonomy(t *testing.T) {
	cases := []struct {
		name   string
		err    error
		code   string
		status int
		retry  int
	}{
		{"typed passes through", &Error{Code: CodeBadCursor, Message: "x"}, CodeBadCursor, 400, 0},
		{"wrapped typed", fmt.Errorf("ctx: %w", &Error{Code: CodeNotFound}), CodeNotFound, 404, 0},
		{"status override", &Error{Code: CodeBadRequest, Status: 405}, CodeBadRequest, 405, 0},
		{"Typed implementer", fmt.Errorf("fetch: %w", shardDown{1500 * time.Millisecond}), CodeUnavailable, 503, 2},
		{"parse error", &struql.ParseError{Line: 3, Msg: "bad"}, CodeParse, 400, 0},
		{"row guard", &struql.ResourceExhausted{Limit: struql.LimitRows, Used: 9, Max: 5}, CodeMaxRows, 422, 0},
		{"nfa guard", &struql.ResourceExhausted{Limit: struql.LimitNFAStates}, CodeNFAStates, 422, 0},
		{"eval deadline", &struql.ResourceExhausted{Limit: "deadline"}, CodeDeadline, 504, 1},
		{"context deadline", fmt.Errorf("page: %w", context.DeadlineExceeded), CodeDeadline, 504, 1},
		{"generation mismatch", &Error{Code: CodeGenerationMismatch}, CodeGenerationMismatch, 410, 0},
		{"overloaded", &Error{Code: CodeOverloaded, RetryAfter: 1}, CodeOverloaded, 503, 1},
		{"panic", Recovered("boom"), CodeInternal, 500, 0},
		{"anything else", errors.New("disk on fire"), CodeInternal, 500, 0},
	}
	for _, c := range cases {
		e := Classify(c.err)
		if e == nil || e.Code != c.code || e.HTTPStatus() != c.status || e.RetryAfter != c.retry {
			t.Errorf("%s: got %+v (status %d), want %s/%d retry %d", c.name, e, e.HTTPStatus(), c.code, c.status, c.retry)
		}
	}
	if e := Classify(fmt.Errorf("page: %w", context.Canceled)); e != nil {
		t.Errorf("cancelled request classified as %+v; want nil (nobody is listening)", e)
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	for d, want := range map[time.Duration]int{
		0: 1, -time.Second: 1, time.Millisecond: 1, time.Second: 1,
		1001 * time.Millisecond: 2, 7 * time.Second: 7,
		math.MaxInt64: int(math.MaxInt64/time.Second) + 1,
	} {
		if got := RetryAfterSeconds(d); got != want {
			t.Errorf("RetryAfterSeconds(%v) = %d, want %d", d, got, want)
		}
	}
}

// decode reads a response's typed envelope.
func decode(t *testing.T, w *httptest.ResponseRecorder) *Error {
	t.Helper()
	var env struct {
		Error *Error `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error == nil {
		t.Fatalf("body is not a typed envelope (%v): %q", err, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	return env.Error
}

// TestFailSanitizesAndLogs: the client sees the typed message, the log
// the full error; a cancelled request gets nothing.
func TestFailSanitizesAndLogs(t *testing.T) {
	var logged bytes.Buffer
	var m Metrics
	m.Timeouts = new(obs.Counter)
	c := &Chain{Name: "test", Logger: log.New(&logged, "", 0), Metrics: m}
	req := httptest.NewRequest("GET", "/page/x", nil)

	w := httptest.NewRecorder()
	c.Fail(w, req, errors.New("confidential: /etc/site/pubs.ddl:17"))
	if e := decode(t, w); w.Code != 500 || e.Code != CodeInternal || strings.Contains(w.Body.String(), "confidential") {
		t.Errorf("internal: %d %q", w.Code, w.Body.String())
	}
	if !strings.Contains(logged.String(), "test: /page/x: internal: confidential: /etc/site/pubs.ddl:17") {
		t.Errorf("log = %q", logged.String())
	}

	w = httptest.NewRecorder()
	c.Fail(w, req, fmt.Errorf("page: %w", context.DeadlineExceeded))
	if e := decode(t, w); w.Code != 504 || e.Code != CodeDeadline || w.Header().Get("Retry-After") != "1" {
		t.Errorf("deadline: %d %q Retry-After %q", w.Code, w.Body.String(), w.Header().Get("Retry-After"))
	}
	if m.Timeouts.Load() != 1 {
		t.Errorf("timeouts = %d, want 1", m.Timeouts.Load())
	}

	logged.Reset()
	w = httptest.NewRecorder()
	if e := c.Fail(w, req, &Error{Code: CodeParse, Message: "bad", Line: 2}); e == nil || w.Code != 400 {
		t.Errorf("parse: %d", w.Code)
	}
	if logged.Len() != 0 {
		t.Errorf("a client error was logged: %q", logged.String())
	}

	w = httptest.NewRecorder()
	if e := c.Fail(w, req, fmt.Errorf("page: %w", context.Canceled)); e != nil || w.Body.Len() != 0 {
		t.Errorf("cancel: returned %v, wrote %q", e, w.Body.String())
	}
}

// TestChainRecoversPanics: a handler panic is a typed, logged 500, and
// the panic counter moves.
func TestChainRecoversPanics(t *testing.T) {
	var logged bytes.Buffer
	c := &Chain{Logger: log.New(&logged, "", 0), Metrics: Metrics{Panics: new(obs.Counter)}}
	h := c.Handler(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { panic("secret internal detail") }))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/", nil))
	if e := decode(t, w); w.Code != 500 || e.Code != CodeInternal || strings.Contains(w.Body.String(), "secret") {
		t.Errorf("panic: %d %q", w.Code, w.Body.String())
	}
	if !strings.Contains(logged.String(), "secret internal detail") || !strings.Contains(logged.String(), "goroutine") {
		t.Errorf("log lacks the panic value and stack: %q", logged.String())
	}
	if c.Metrics.Panics.Load() != 1 {
		t.Errorf("panics = %d, want 1", c.Metrics.Panics.Load())
	}
}

// TestChainShedsAndBypasses: past MaxInflight a request is a typed 503
// with Retry-After before it reaches the routes, while bypass routes are
// still served; metrics count every request, the shed one included.
func TestChainShedsAndBypasses(t *testing.T) {
	m := Metrics{Requests: new(obs.Counter), InFlight: new(obs.Gauge), Shed: new(obs.Counter), Latency: new(obs.Histogram)}
	c := &Chain{MaxInflight: 1, Metrics: m, Bypass: map[string]http.HandlerFunc{
		"/healthz": func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok")) },
	}}
	entered, release := make(chan struct{}), make(chan struct{})
	h := c.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
	}))
	done := make(chan struct{})
	go func() {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/slow", nil))
		close(done)
	}()
	<-entered
	if got := m.InFlight.Load(); got != 1 {
		t.Errorf("in_flight = %d while one request is held, want 1", got)
	}

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/other", nil))
	if e := decode(t, w); w.Code != 503 || e.Code != CodeOverloaded || w.Header().Get("Retry-After") != "1" {
		t.Errorf("shed: %d %q Retry-After %q", w.Code, w.Body.String(), w.Header().Get("Retry-After"))
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
	if w.Code != 200 || w.Body.String() != "ok" {
		t.Errorf("bypass under saturation: %d %q", w.Code, w.Body.String())
	}
	close(release)
	<-done

	if m.Requests.Load() != 2 || m.Shed.Load() != 1 || m.InFlight.Load() != 0 || m.Latency.Count() != 2 {
		t.Errorf("requests %d shed %d in_flight %d latency samples %d; want 2, 1, 0, 2",
			m.Requests.Load(), m.Shed.Load(), m.InFlight.Load(), m.Latency.Count())
	}
}

// TestChainDeadline: the chain's timeout reaches the handler's context;
// a bypass route runs without it.
func TestChainDeadline(t *testing.T) {
	c := &Chain{Timeout: time.Minute, Bypass: map[string]http.HandlerFunc{
		"/healthz": func(w http.ResponseWriter, r *http.Request) {
			if _, ok := r.Context().Deadline(); ok {
				t.Error("bypass route got the request deadline")
			}
		},
	}}
	h := c.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dl, ok := r.Context().Deadline()
		if !ok || time.Until(dl) > time.Minute {
			t.Errorf("route deadline = %v, %v; want within a minute", dl, ok)
		}
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz", nil))
}
