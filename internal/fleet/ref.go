// Package fleet is the sharded, replicated serving tier for click-time
// traffic: the site's page space is partitioned by consistent hashing
// over Skolem page keys into shards, every replica of every shard reads
// the generation's one immutable frozen snapshot of the data graph and
// its one page cache through the fleet's one evaluator (a hot reload
// swaps both), and an HTTP edge routes page requests to the owning
// shard, caches rendered pages with generation-scoped ETags, answers
// conditional GETs, and serves stale-while-revalidate across reloads.
//
// The paper's "Catching the Boat" scenario serves pages straight from
// the StruQL evaluator; this package scales that single evaluator to a
// fleet while preserving its core guarantee — every page a client sees
// is a pure function of one data generation, never a mixture of two.
package fleet

import (
	"fmt"
	"net/url"
	"strings"

	"strudel/internal/dynamic"
	"strudel/internal/graph"
)

// Page keys are the fleet's wire form of a page identity: the Skolem
// function name and each argument's canonical value key, joined with
// ';' (escaped inside components). Unlike display-form oids — whose "#n"
// disambiguation suffixes depend on the order pages were first computed
// in one generation of the fleet's evaluator — page keys are
// derived only from the ref itself, so every replica, the edge, and the
// router agree on them without shared state, and any replica, in any
// process, can decode one it has never seen.

// escapeComp escapes '%' and ';' inside a key component; everything
// else passes through, keeping keys readable in URLs and logs.
func escapeComp(s string) string {
	if !strings.ContainsAny(s, "%;") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '%':
			b.WriteString("%25")
		case ';':
			b.WriteString("%3B")
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

func unescapeComp(s string) (string, error) {
	if !strings.Contains(s, "%") {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '%' {
			b.WriteByte(s[i])
			continue
		}
		if i+3 > len(s) {
			return "", fmt.Errorf("fleet: truncated escape in page key component %q", s)
		}
		switch s[i+1 : i+3] {
		case "25":
			b.WriteByte('%')
		case "3B", "3b":
			b.WriteByte(';')
		default:
			return "", fmt.Errorf("fleet: bad escape %%%s in page key component %q", s[i+1:i+3], s)
		}
		i += 2
	}
	return b.String(), nil
}

// EncodeRef renders a page ref as its canonical page key.
func EncodeRef(ref dynamic.PageRef) string {
	var b strings.Builder
	b.WriteString(escapeComp(ref.Fn))
	for _, a := range ref.Args {
		b.WriteByte(';')
		b.WriteString(escapeComp(a.Key()))
	}
	return b.String()
}

// DecodeRef parses a page key back into a page ref. It accepts exactly
// what EncodeRef produces; any ref round-trips.
func DecodeRef(key string) (dynamic.PageRef, error) {
	parts := strings.Split(key, ";")
	fn, err := unescapeComp(parts[0])
	if err != nil {
		return dynamic.PageRef{}, err
	}
	if fn == "" {
		return dynamic.PageRef{}, fmt.Errorf("fleet: page key %q has no function name", key)
	}
	ref := dynamic.PageRef{Fn: fn}
	for _, p := range parts[1:] {
		comp, err := unescapeComp(p)
		if err != nil {
			return dynamic.PageRef{}, err
		}
		v, err := graph.ParseKey(comp)
		if err != nil {
			return dynamic.PageRef{}, fmt.Errorf("fleet: page key %q: %w", key, err)
		}
		ref.Args = append(ref.Args, v)
	}
	return ref, nil
}

// PageURL is the edge's URL for a page ref: /page/<escaped page key>.
// It is the link function the fleet's dynamic.Renderer is built with,
// so a page rendered by any replica links to URLs any other replica,
// in this process or another, can resolve.
func PageURL(ref dynamic.PageRef) string {
	return "/page/" + urlEscapeKey(EncodeRef(ref))
}

// refFromPath decodes the page ref a PageURL path names; the edge and
// the replica server both route by it.
func refFromPath(path string) (dynamic.PageRef, error) {
	key, err := url.PathUnescape(strings.TrimPrefix(path, "/page/"))
	if err != nil {
		return dynamic.PageRef{}, err
	}
	return DecodeRef(key)
}

// urlEscapeKey percent-encodes a page key for use as one URL path
// segment. Only the characters that would break path parsing are
// escaped; the common case (letters, digits, parentheses-free keys)
// stays readable.
func urlEscapeKey(key string) string {
	const hex = "0123456789ABCDEF"
	var b strings.Builder
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-' || c == '_' || c == '.' || c == '~' || c == ';' || c == '(' || c == ')' || c == ',':
			b.WriteByte(c)
		default:
			b.WriteByte('%')
			b.WriteByte(hex[c>>4])
			b.WriteByte(hex[c&0xf])
		}
	}
	return b.String()
}
