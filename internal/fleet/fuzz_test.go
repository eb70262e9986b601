package fleet

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"strudel/internal/spine"
)

// FuzzDecodeRef feeds arbitrary page keys — the edge parses them
// straight off request URLs — to DecodeRef. It must never panic, and
// any key it accepts must reach a fixed point after one round trip:
// re-encoding the decoded ref yields a canonical key that decodes and
// re-encodes to itself.
func FuzzDecodeRef(f *testing.F) {
	for _, k := range []string{
		"Root", "Pub;npub01", "Year;i1994", "Pair;sa;i-7", "S;sa%3Bb",
		"S;s100%25%3Bdone%253B", "F;f2.5;b1;0", "", ";", "Pub;%zz", "Year;i012",
	} {
		f.Add(k)
	}
	f.Fuzz(func(t *testing.T, key string) {
		ref, err := DecodeRef(key)
		if err != nil {
			return
		}
		canon := EncodeRef(ref)
		again, err := DecodeRef(canon)
		if err != nil {
			t.Fatalf("DecodeRef(%q) ok, but its re-encoding %q fails: %v", key, canon, err)
		}
		if got := EncodeRef(again); got != canon {
			t.Fatalf("key %q: re-encoding is not a fixed point: %q then %q", key, canon, got)
		}
	})
}

// FuzzETagMatch checks the If-None-Match matcher on arbitrary headers
// and validators: it never panics, "*" matches every validator, and the
// weak-comparison W/ prefix never changes the outcome.
func FuzzETagMatch(f *testing.F) {
	for _, s := range [][2]string{
		{`"g1-abc"`, `"g1-abc"`},
		{`W/"g1-abc"`, `"g1-abc"`},
		{`"x", W/"g1-abc" , "y"`, `"g1-abc"`},
		{` * `, `"g2-def"`},
		{`W/*`, `*`},
		{`,,`, ``},
		{`"g1-abc"`, `"g1-abd"`},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, header, etag string) {
		got := ETagMatch(header, etag)
		if !ETagMatch("*", etag) || !ETagMatch(" * ", etag) {
			t.Fatalf("* does not match %q", etag)
		}
		if !strings.Contains(etag, ",") && etag == strings.TrimSpace(etag) && !ETagMatch("W/"+etag, etag) {
			t.Fatalf("W/%s does not match %q", etag, etag)
		}
		if strings.TrimSpace(header) == "*" {
			return
		}
		// Weakening every strong tag in the list changes nothing.
		parts := strings.Split(header, ",")
		for i, p := range parts {
			p = strings.TrimSpace(p)
			if strings.HasPrefix(p, "W/") {
				return
			}
			parts[i] = "W/" + p
		}
		if weak := strings.Join(parts, ","); ETagMatch(weak, etag) != got {
			t.Fatalf("ETagMatch(%q, %q) = %v but weakened %q gives %v", header, etag, got, weak, !got)
		}
	})
}

// FuzzPageRequest throws arbitrary request paths, and deadline headers
// for the replica, at both page fronts — the edge and the replica
// server — which parse /page/<key> and X-Strudel-Deadline-Ms straight off
// the wire. Neither may panic or answer 500: a page renders, a redirect
// cleans the path, and everything else is a typed envelope with a known
// code (a deadline too short to render in is the one 5xx, typed 504).
func FuzzPageRequest(f *testing.F) {
	for _, s := range [][2]string{
		{"/", ""}, {"/page/Root", "5000"}, {"/page/Pub;npub01", "1"}, {"/page/Year;i1994", "-3"},
		{"/page/Nope", ""}, {"/page/Pub;%zz", "x"}, {"/page/", "9999999999999999999999"},
		{"/page/Tag;sdb%3B", "0"}, {"/healthz", ""}, {"//page/../Root", ""}, {"/query", "12"},
		{"/page/Root", "9223372036854775807"},
	} {
		f.Add(s[0], s[1])
	}
	fl := newTestFleet(f, buildSchema(f), genSiteData(9), 1, 1)
	fronts := map[string]http.Handler{
		"edge":    quiet(NewEdge(fl)).Handler(),
		"replica": ReplicaHandler(fl.Replica(0, 0)),
	}
	f.Fuzz(func(t *testing.T, path, deadline string) {
		for name, h := range fronts {
			req := httptest.NewRequest(http.MethodGet, "/", nil)
			req.URL.Path = path
			req.Header.Set(deadlineHeader, deadline)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			switch {
			case w.Code == http.StatusOK || w.Code == http.StatusMovedPermanently:
				continue
			case w.Code >= 500 && w.Code != http.StatusGatewayTimeout:
				t.Fatalf("%s: %q (deadline %q) = %d: %s", name, path, deadline, w.Code, w.Body.String())
			}
			var env struct {
				Error *spine.Error `json:"error"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error == nil {
				t.Fatalf("%s: %q = %d without a typed envelope: %q", name, path, w.Code, w.Body.String())
			}
			switch env.Error.Code {
			case spine.CodeBadRequest, spine.CodeNotFound, spine.CodeDeadline:
			default:
				t.Fatalf("%s: %q = %d with unexpected code %q", name, path, w.Code, env.Error.Code)
			}
		}
	})
}
