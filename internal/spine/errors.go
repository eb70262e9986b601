package spine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"strudel/internal/struql"
)

// Error codes — the complete taxonomy (documented in docs/QUERYAPI.md
// and docs/SERVING.md). Every error response of the serving tier — page,
// query or replica — carries exactly one of these in a {"error":{...}}
// envelope, so clients and tests switch on the code instead of parsing
// prose.
const (
	// CodeBadRequest: malformed request — unreadable JSON, missing
	// query, oversized body, undecodable page key, unsupported method.
	CodeBadRequest = "bad_request"
	// CodeNotFound: no such page or resource (404).
	CodeNotFound = "not_found"
	// CodeParse: the query text failed StruQL parsing or analysis;
	// Line carries the source line.
	CodeParse = "parse_error"
	// CodeBadCursor: the cursor was undecodable, corrupted, or minted
	// for a different query/selector.
	CodeBadCursor = "bad_cursor"
	// CodeUnknownSelect: a selector names a variable the query does not
	// bind.
	CodeUnknownSelect = "unknown_select"
	// CodeGenerationMismatch: a cursor resume pinned to a generation
	// that has been reloaded away and whose result is no longer cached;
	// the walk must restart from the first page (410 Gone).
	CodeGenerationMismatch = "generation_mismatch"
	// CodeMaxRows / CodeNFAStates: the row or NFA-state guard tripped;
	// the query is too expensive at the granted limits (422) and
	// retrying unchanged will trip again, so no Retry-After.
	CodeMaxRows   = "max_rows"
	CodeNFAStates = "nfa_states"
	// CodeDeadline: the request or its evaluation outlived its
	// wall-clock bound (504); a retry may succeed on a less loaded
	// replica, so Retry-After: 1.
	CodeDeadline = "deadline"
	// CodeOverloaded: refused at the inflight gate before any work
	// (503 + Retry-After).
	CodeOverloaded = "overloaded"
	// CodeUnavailable: this replica, or every replica of the routed
	// shard, is down (503 + Retry-After from the recovery hint).
	CodeUnavailable = "unavailable"
	// CodeInternal: a recovered panic or an unclassified failure (500).
	// The detail is logged server-side and never sent.
	CodeInternal = "internal"
)

// Error is the typed error payload. It implements error so evaluation
// closures can return one through the fleet (typed errors are
// deterministic, hence never failed over to a sibling replica).
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Line is the source line of a parse error.
	Line int `json:"line,omitempty"`
	// Limit/Used/Max mirror struql.ResourceExhausted for guard trips.
	Limit string `json:"limit,omitempty"`
	Used  int    `json:"used,omitempty"`
	Max   int    `json:"max,omitempty"`
	// Generation is the server's current generation and WantGeneration
	// the cursor's, on a generation mismatch.
	Generation     int64 `json:"generation,omitempty"`
	WantGeneration int64 `json:"want_generation,omitempty"`
	// RetryAfter, in seconds, mirrors the Retry-After header when the
	// error is worth retrying.
	RetryAfter int `json:"retry_after,omitempty"`
	// Status overrides the status the code maps to (405 for a wrong
	// method).
	Status int `json:"-"`
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// HTTPStatus returns the response status the code maps to.
func (e *Error) HTTPStatus() int {
	if e.Status != 0 {
		return e.Status
	}
	switch e.Code {
	case CodeBadRequest, CodeParse, CodeBadCursor, CodeUnknownSelect:
		return http.StatusBadRequest
	case CodeNotFound:
		return http.StatusNotFound
	case CodeGenerationMismatch:
		return http.StatusGone
	case CodeMaxRows, CodeNFAStates:
		return http.StatusUnprocessableEntity
	case CodeDeadline:
		return http.StatusGatewayTimeout
	case CodeOverloaded, CodeUnavailable:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// Typed is implemented by errors of other packages that know their own
// slot in the taxonomy (a shard with no live replica), so Classify
// needs no import of them.
type Typed interface {
	error
	TypedError() *Error
}

// panicError is a recovered panic as an error, carrying the stack of
// the goroutine that panicked. It classifies as internal.
type panicError struct {
	value any
	stack []byte
}

func (p *panicError) Error() string { return fmt.Sprintf("panic: %v\n%s", p.value, p.stack) }

// Recovered turns a value returned by recover() into an error that
// classifies as internal and counts as a panic. Call it in the deferred
// function itself, so the stack is the panicking one.
func Recovered(v any) error { return &panicError{value: v, stack: debug.Stack()} }

// Classify maps any serving-path error to its typed *Error: typed
// errors pass through; Typed, struql and context errors get their slot;
// everything else, panics included, is internal. It returns nil for
// context.Canceled — the client is gone and nothing should be written.
func Classify(err error) *Error {
	var te *Error
	if errors.As(err, &te) {
		return te
	}
	var typed Typed
	if errors.As(err, &typed) {
		return typed.TypedError()
	}
	var pe *struql.ParseError
	if errors.As(err, &pe) {
		return &Error{Code: CodeParse, Message: pe.Msg, Line: pe.Line}
	}
	var re *struql.ResourceExhausted
	if errors.As(err, &re) {
		switch re.Limit {
		case struql.LimitRows:
			return &Error{Code: CodeMaxRows, Limit: re.Limit, Used: re.Used, Max: re.Max,
				Message: "row guard tripped: narrow the query or raise max_rows"}
		case struql.LimitNFAStates:
			return &Error{Code: CodeNFAStates, Limit: re.Limit, Used: re.Used, Max: re.Max,
				Message: "path-automaton guard tripped: simplify the regular path expression"}
		default:
			return &Error{Code: CodeDeadline, Limit: re.Limit, RetryAfter: 1,
				Message: "evaluation exceeded its deadline"}
		}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return &Error{Code: CodeDeadline, RetryAfter: 1, Message: "request timed out"}
	}
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return &Error{Code: CodeInternal, Message: "internal server error"}
}

// RetryAfterSeconds turns a recovery hint into a Retry-After value:
// whole seconds, rounded up, at least 1 (clients treat 0 as "retry
// immediately", which defeats the point of the hint).
func RetryAfterSeconds(d time.Duration) int {
	secs := d / time.Second
	if d%time.Second > 0 {
		secs++ // rounding by division, so the largest hint cannot wrap
	}
	if secs < 1 {
		secs = 1
	}
	return int(secs)
}

// Write renders a typed error as its {"error":{...}} envelope, setting
// Retry-After when the error carries a hint.
func Write(w http.ResponseWriter, e *Error) {
	w.Header().Set("Content-Type", "application/json")
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter))
	}
	w.WriteHeader(e.HTTPStatus())
	json.NewEncoder(w).Encode(map[string]*Error{"error": e})
}

// NotFound answers a request for a route that does not exist.
func NotFound(w http.ResponseWriter, r *http.Request) {
	Write(w, &Error{Code: CodeNotFound, Message: "no such resource"})
}
