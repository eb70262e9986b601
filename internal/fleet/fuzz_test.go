package fleet

import (
	"strings"
	"testing"
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
