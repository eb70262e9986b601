package queryapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"strudel/internal/qgen"
	"strudel/internal/spine"
)

// FuzzQueryEndpoint throws arbitrary (query text, selector, cursor)
// triples at the HTTP endpoint. The contract under fuzz: garbage gets a
// structured 4xx, valid queries get well-formed NDJSON — never a panic,
// never a 500, never an unstructured response. Guards are configured
// tight so an adversarial-but-valid query converts to a typed 422; for
// the residue whose cost the row/NFA guards cannot see (e.g. planner
// work on thousand-condition clauses), the deadline is the designed
// backstop, so a *typed* deadline 504 is the one non-4xx error the
// harness accepts — and the timeout is short so such executions cannot
// stall the fuzz loop.
func FuzzQueryEndpoint(f *testing.F) {
	f.Add("where Items(x)", "x", "")
	f.Add("Items(x), x -> \"year\" -> y, y > 1993", "y,x", "")
	f.Add(`where Items(x), x -> ("next"|"ref")* -> v`, "", "")
	f.Add(qgen.WhereClause(3), "", "")
	f.Add("where Items(", "", "")
	f.Add("where Items(x)", "nope", "c3FjMQ")
	f.Add("", "\x00,x", "!!!not-base64!!!")
	// A genuine cursor for the first seed query, so mutation explores the
	// decode path from a valid starting point.
	f.Add("where Items(x)", "x",
		cursor{gen: 0, qhash: queryHash("where Items(x)", []string{"x"}), offset: 1}.encode())

	svc := &Service{
		Backend: newSingle(f, qgen.Graph(42).Freeze()),
		Limits: Limits{
			MaxRows:      5000,
			MaxNFAStates: 2048,
			Timeout:      2 * time.Second,
			MaxPageSize:  1000,
		},
		MaxInflight: -1, // the fuzz driver is serial; the gate only adds noise
	}
	h := svc.Handler()

	f.Fuzz(func(t *testing.T, query, sel, cur string) {
		req := QueryRequest{Query: query, Cursor: cur}
		if sel != "" {
			req.Select = strings.Split(sel, ",")
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Skip() // unencodable input (invalid UTF-8 re-marshaling quirks)
		}
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		// Boundedness is part of the contract: with a 2s evaluation
		// deadline, no input may hold the handler anywhere near this long
		// (parse and planning are the only un-deadlined phases).
		if d := time.Since(t0); d > 15*time.Second {
			t.Fatalf("handler held %v on one input\nquery: %q", d, query)
		}

		if rec.Code >= 500 && rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("5xx (%d) from fuzz input\nquery: %q\nselect: %q\ncursor: %q\nbody: %s",
				rec.Code, query, sel, cur, rec.Body.String())
		}
		if rec.Code == http.StatusOK {
			lines := strings.Split(strings.TrimRight(rec.Body.String(), "\n"), "\n")
			var hdr headerMsg
			if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil || hdr.Kind != "header" {
				t.Fatalf("200 without a header line: %q", lines[0])
			}
			var end endMsg
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &end); err != nil || end.Kind != "end" {
				t.Fatalf("200 without an end line: %q", lines[len(lines)-1])
			}
			return
		}
		// Every error must be the typed envelope with a known code.
		var env struct {
			Error *spine.Error `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil {
			t.Fatalf("status %d without a typed error envelope: %s", rec.Code, rec.Body.String())
		}
		switch env.Error.Code {
		case spine.CodeBadRequest, spine.CodeParse, spine.CodeBadCursor, spine.CodeUnknownSelect,
			spine.CodeGenerationMismatch, spine.CodeMaxRows, spine.CodeNFAStates:
		case spine.CodeDeadline:
			if rec.Code != http.StatusGatewayTimeout {
				t.Fatalf("deadline with status %d, want 504", rec.Code)
			}
		default:
			t.Fatalf("status %d with unexpected code %q for fuzz input", rec.Code, env.Error.Code)
		}
	})
}
