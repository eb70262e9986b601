package queryapi

import (
	"encoding/base64"
	"net/http"
	"strings"
	"testing"

	"strudel/internal/qgen"
	"strudel/internal/spine"
)

// The cursor contract under test: (1) for ANY page size, walking the
// cursor chain reassembles exactly the unpaginated result; (2) a resume
// that crosses a hot reload either completes on its original generation
// or fails with a typed generation_mismatch — never a torn mix of
// generations; (3) cursors are bound to their query+selector and reject
// tampering with a typed bad_cursor.

// TestCursorPageSizeReassembly is the property the acceptance criteria
// pin: for page sizes {1, 2, 7, N} (N = the full result size), the
// paged walk equals the unpaginated result byte for byte.
func TestCursorPageSizeReassembly(t *testing.T) {
	single := newSingle(t, qgen.Graph(5).Freeze())
	_, ts := newQueryServer(t, single, generous())

	queries := 30
	if testing.Short() {
		queries = 8
	}
	for qi := 0; qi < queries; qi++ {
		q := qgen.WhereClause(uint64(qi)*6700417 + 29)
		var sel []string
		if qi%4 == 2 {
			sel = []string{"x"}
		}
		full := queryPage(t, ts, QueryRequest{Query: q, Select: sel, PageSize: 1 << 20})
		if !full.end.Done {
			t.Fatalf("full-size page not done (total %d)", full.header.TotalRows)
		}
		n := len(full.rows)
		sizes := []int{1, 2, 7, n}
		if n == 0 {
			sizes = []int{1, 2, 7}
		} else if n > 2000 {
			sizes = []int{7, n} // bound the request count; tiny sizes covered by other queries
		}
		for _, ps := range sizes {
			hdr, rows := walkQuery(t, ts, QueryRequest{Query: q, Select: sel, PageSize: ps})
			if !sameRows(rows, full.rows) {
				t.Fatalf("page_size=%d walk reassembled %d rows, unpaginated has %d\nquery:\n%s",
					ps, len(rows), n, q)
			}
			if !sameRows(hdr.Vars, full.header.Vars) || hdr.TotalRows != full.header.TotalRows {
				t.Fatalf("page_size=%d header diverged\nquery:\n%s", ps, q)
			}
		}
	}
}

// TestCursorResumeCompletesOnOldGeneration: start a walk, hot-reload
// the data, keep walking. The per-generation result cache must finish
// the walk on the original generation — every remaining page reports
// the old generation and the reassembled rows equal the pre-reload
// result.
func TestCursorResumeCompletesOnOldGeneration(t *testing.T) {
	single := newSingle(t, qgen.Graph(5).Freeze())
	_, ts := newQueryServer(t, single, generous())

	q := "where Items(x), x -> \"year\" -> y"
	full := queryPage(t, ts, QueryRequest{Query: q, PageSize: 1 << 20})
	if len(full.rows) < 4 {
		t.Fatalf("need a multi-page result, got %d rows", len(full.rows))
	}

	first := queryPage(t, ts, QueryRequest{Query: q, PageSize: 2})
	if first.end.Done {
		t.Fatalf("page_size=2 finished in one page")
	}
	single.SwapData(qgen.Graph(77).Freeze(), nil)
	if gen := single.Generation(); gen != 1 {
		t.Fatalf("swap produced generation %d, want 1", gen)
	}

	got := append([]string(nil), first.rows...)
	cur := first.end.NextCursor
	for cur != "" {
		p := queryPage(t, ts, QueryRequest{Query: q, PageSize: 2, Cursor: cur})
		if p.header.Generation != 0 {
			t.Fatalf("resumed page reports generation %d, want the pinned 0", p.header.Generation)
		}
		got = append(got, p.rows...)
		cur = p.end.NextCursor
	}
	if !sameRows(got, full.rows) {
		t.Fatalf("post-reload walk diverged from the pre-reload result (%d vs %d rows)",
			len(got), len(full.rows))
	}
	// A fresh (cursorless) query now sees the new generation.
	fresh := queryPage(t, ts, QueryRequest{Query: q, PageSize: 1 << 20})
	if fresh.header.Generation != 1 {
		t.Fatalf("fresh query reports generation %d, want 1", fresh.header.Generation)
	}
	if sameRows(fresh.rows, full.rows) {
		t.Fatalf("reload did not change the result; the test graph seeds are degenerate")
	}
}

// TestCursorResumeEvictedGeneration: same reload, but queries on the
// new generation push the old generation's result out of the bounded
// cache before the resume. The walk must fail with a typed
// generation_mismatch (410) naming both generations — not silently
// continue on new data.
func TestCursorResumeEvictedGeneration(t *testing.T) {
	single := newSingle(t, qgen.Graph(5).Freeze())
	lim := generous()
	lim.MaxCached = 2
	svc, ts := newQueryServer(t, single, lim)

	q := "where Items(x), x -> \"year\" -> y"
	first := queryPage(t, ts, QueryRequest{Query: q, PageSize: 2})
	if first.end.Done {
		t.Fatalf("page_size=2 finished in one page")
	}
	single.SwapData(qgen.Graph(77).Freeze(), nil)
	for _, filler := range []string{"where Items(x)", "where Items(x), x -> \"id\" -> i"} {
		if p := queryPage(t, ts, QueryRequest{Query: filler}); p.header.Generation != 1 {
			t.Fatalf("filler query ran on generation %d, want 1", p.header.Generation)
		}
	}

	code, _, e := queryError(t, ts, "/query", QueryRequest{Query: q, PageSize: 2, Cursor: first.end.NextCursor})
	if code != http.StatusGone || e.Code != spine.CodeGenerationMismatch {
		t.Fatalf("evicted resume = %d/%s, want 410/%s", code, e.Code, spine.CodeGenerationMismatch)
	}
	if e.WantGeneration != 0 || e.Generation != 1 {
		t.Fatalf("mismatch payload generations = (want %d, live %d), expected (0, 1)",
			e.WantGeneration, e.Generation)
	}
	if n := svc.Obs.GenerationMismatches.Load(); n != 1 {
		t.Fatalf("generation_mismatches counter = %d, want 1", n)
	}
}

// TestCursorBoundToQuery: a cursor minted for one query+selector is
// rejected with bad_cursor when replayed against any other.
func TestCursorBoundToQuery(t *testing.T) {
	single := newSingle(t, qgen.Graph(5).Freeze())
	_, ts := newQueryServer(t, single, generous())

	first := queryPage(t, ts, QueryRequest{Query: "where Items(x), x -> \"year\" -> y", PageSize: 2})
	cur := first.end.NextCursor
	if cur == "" {
		t.Fatalf("no cursor to replay")
	}
	for _, bad := range []QueryRequest{
		{Query: "where Items(x)", Cursor: cur},                                            // different query
		{Query: "where Items(x), x -> \"year\" -> y", Select: []string{"x"}, Cursor: cur}, // different selector
	} {
		code, _, e := queryError(t, ts, "/query", bad)
		if code != http.StatusBadRequest || e.Code != spine.CodeBadCursor {
			t.Fatalf("replayed cursor = %d/%s, want 400/%s", code, e.Code, spine.CodeBadCursor)
		}
	}
}

// TestCursorTamperRejected: every corruption of a real cursor decodes
// to a typed bad_cursor, never a panic or a wrong page.
func TestCursorTamperRejected(t *testing.T) {
	real := cursor{gen: 3, qhash: 0xdeadbeefcafe, offset: 41}.encode()
	raw, err := base64.RawURLEncoding.DecodeString(real)
	if err != nil {
		t.Fatalf("cursor is not base64url: %v", err)
	}
	cases := map[string]string{
		"empty":       "",
		"not-base64":  "!!!!",
		"truncated":   real[:len(real)/2],
		"bit-flip":    base64.RawURLEncoding.EncodeToString(append(append([]byte(nil), raw[:len(raw)-1]...), raw[len(raw)-1]^0x40)),
		"wrong-magic": base64.RawURLEncoding.EncodeToString(append([]byte("nope"), raw[4:]...)),
		"extra-bytes": base64.RawURLEncoding.EncodeToString(append(append([]byte(nil), raw...), 7)),
	}
	for name, s := range cases {
		if _, e := decodeCursor(s); e == nil || e.Code != spine.CodeBadCursor {
			t.Errorf("%s: decodeCursor accepted corrupt input %q", name, s)
		}
	}
	// And the genuine cursor round-trips.
	c, e := decodeCursor(real)
	if e != nil || c.gen != 3 || c.qhash != 0xdeadbeefcafe || c.offset != 41 {
		t.Fatalf("round trip failed: %+v, %v", c, e)
	}
}

// TestSelectorProjection: server-side projection reorders and narrows
// columns to exactly what EvalWhere + the shared encoder produce, and
// unknown selectors fail typed with the available variables named.
func TestSelectorProjection(t *testing.T) {
	ix := qgen.Graph(5).Freeze()
	single := newSingle(t, ix)
	_, ts := newQueryServer(t, single, generous())

	q := "where Items(x), x -> \"year\" -> y, x -> \"id\" -> i"
	for _, sel := range [][]string{{"y"}, {"y", "x"}, {"i", "y", "x"}} {
		wantVars, wantRows := inProcessRows(t, ix, q, sel)
		hdr, rows := walkQuery(t, ts, QueryRequest{Query: q, Select: sel, PageSize: 7})
		if !sameRows(hdr.Vars, wantVars) || !sameRows(rows, wantRows) {
			t.Fatalf("projection %v diverged from reference", sel)
		}
	}
	code, _, e := queryError(t, ts, "/query", QueryRequest{Query: q, Select: []string{"zz"}})
	if code != http.StatusBadRequest || e.Code != spine.CodeUnknownSelect {
		t.Fatalf("unknown selector = %d/%s, want 400/%s", code, e.Code, spine.CodeUnknownSelect)
	}
	if !strings.Contains(e.Message, "i, x, y") {
		t.Fatalf("unknown_select message %q does not list the bound variables", e.Message)
	}
}
