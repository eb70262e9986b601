package fleet

import (
	"net/url"
	"strings"
	"testing"

	"strudel/internal/dynamic"
	"strudel/internal/graph"
)

func TestRefRoundTrip(t *testing.T) {
	cases := []dynamic.PageRef{
		{Fn: "Root"},
		{Fn: "Pub", Args: []graph.Value{graph.NewNode("pub01")}},
		{Fn: "Year", Args: []graph.Value{graph.NewInt(1994)}},
		{Fn: "Tag", Args: []graph.Value{graph.NewString("db")}},
		{Fn: "Pair", Args: []graph.Value{graph.NewString("a"), graph.NewInt(-7)}},
		// Hostile component content: separators and escapes in the data.
		{Fn: "S", Args: []graph.Value{graph.NewString("a;b")}},
		{Fn: "S", Args: []graph.Value{graph.NewString("100%;done%3B")}},
		{Fn: "S", Args: []graph.Value{graph.NewString("")}},
		{Fn: "F", Args: []graph.Value{graph.NewFloat(2.5), graph.NewBool(true), graph.Value{}}},
	}
	for _, ref := range cases {
		key := EncodeRef(ref)
		got, err := DecodeRef(key)
		if err != nil {
			t.Fatalf("DecodeRef(%q): %v", key, err)
		}
		if got.Fn != ref.Fn || len(got.Args) != len(ref.Args) {
			t.Fatalf("round trip %q: got %v want %v", key, got, ref)
		}
		for i := range ref.Args {
			if got.Args[i].Key() != ref.Args[i].Key() {
				t.Fatalf("round trip %q arg %d: got %q want %q",
					key, i, got.Args[i].Key(), ref.Args[i].Key())
			}
		}
		// Canonical keys are stable under a second round trip.
		if again := EncodeRef(got); again != key {
			t.Fatalf("re-encode of %q produced %q", key, again)
		}
	}
}

func TestDecodeRefRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",         // no function
		";",        // empty function with arg
		"Pub;zzz",  // arg is not a value key
		"Pub;%zz",  // truncated escape
		"Pub;s%2",  // truncated escape at end
		"Pub;i12x", // malformed int key
	} {
		if _, err := DecodeRef(bad); err == nil {
			t.Errorf("DecodeRef(%q): expected error, got none", bad)
		}
	}
}

func TestPageURLIsPathSafe(t *testing.T) {
	ref := dynamic.PageRef{Fn: "S", Args: []graph.Value{graph.NewString("a b/c?d#e;f%g")}}
	u := PageURL(ref)
	if !strings.HasPrefix(u, "/page/") {
		t.Fatalf("PageURL = %q, want /page/ prefix", u)
	}
	for _, c := range []string{" ", "?", "#", "/"} {
		if strings.Contains(u[len("/page/"):], c) {
			t.Fatalf("PageURL %q leaks unescaped %q", u, c)
		}
	}
	// The escaped key must unescape back to the canonical encoding.
	raw, err := url.PathUnescape(strings.TrimPrefix(u, "/page/"))
	if err != nil {
		t.Fatalf("PathUnescape(%q): %v", u, err)
	}
	if raw != EncodeRef(ref) {
		t.Fatalf("unescaped key %q != canonical %q", raw, EncodeRef(ref))
	}
}
