package struql

import (
	"bytes"
	"hash/maphash"
	"strings"

	"strudel/internal/graph"
)

// SkolemEnv memoizes Skolem-function applications: by definition a Skolem
// function applied to the same inputs produces the same node oid (§2.2).
// Sharing one environment across composed queries lets a later query
// re-derive nodes created by an earlier one — RootPage() names the same
// object in every query of a site definition.
//
// Construction creates an oid per result row, so the environment is built
// for allocation-free hits and one-allocation misses: memo keys live
// concatenated in one byte arena indexed by a hash table with chained
// entries, and the display form is rendered into a reusable buffer —
// the only per-miss allocation is the oid string itself.
type SkolemEnv struct {
	seed maphash.Seed
	// index maps a key hash to the head of a 1-based chain through next;
	// entry i's key is keys[offs[i]:offs[i+1]] and its oid is oids[i].
	index map[uint64]int32
	next  []int32
	keys  []byte
	offs  []int32
	oids  []graph.OID
	// used holds every issued oid (keys are graph.OID strings), for the
	// "#n" disambiguation of display-form collisions.
	used map[string]bool
	// keyBuf and oidBuf are reused across OID calls.
	keyBuf []byte
	oidBuf []byte
}

// NewSkolemEnv returns an empty environment.
func NewSkolemEnv() *SkolemEnv {
	return &SkolemEnv{
		seed:  maphash.MakeSeed(),
		index: make(map[uint64]int32),
		offs:  []int32{0},
		used:  make(map[string]bool),
	}
}

// OID returns the node identifier for fn(args...). The display form is
// "fn(a,b)" with argument texts sanitized; if two distinct argument tuples
// sanitize to the same display form, later ones get a "#n" suffix so OIDs
// remain injective in the inputs.
func (s *SkolemEnv) OID(fn string, args []graph.Value) graph.OID {
	h, i := s.find(fn, args)
	if i != 0 {
		return s.oids[i-1]
	}
	oid := s.render(fn, args)
	s.insert(h, oid)
	return oid
}

// Adopt records oid as the identifier of fn(args...) and marks it used,
// so an environment can carry over an application another environment
// already issued under the same oid. An application already recorded
// keeps its oid.
func (s *SkolemEnv) Adopt(fn string, args []graph.Value, oid graph.OID) {
	if h, i := s.find(fn, args); i == 0 {
		s.insert(h, oid)
	}
}

// find builds fn(args...)'s memo key in keyBuf and returns its hash and
// its 1-based entry, 0 when it is not recorded.
func (s *SkolemEnv) find(fn string, args []graph.Value) (uint64, int32) {
	buf := append(s.keyBuf[:0], fn...)
	for _, a := range args {
		buf = append(buf, 0)
		buf = graph.AppendKey(buf, a)
	}
	s.keyBuf = buf
	h := maphash.Bytes(s.seed, buf)
	for i := s.index[h]; i != 0; i = s.next[i-1] {
		if bytes.Equal(s.keys[s.offs[i-1]:s.offs[i]], buf) {
			return h, i
		}
	}
	return h, 0
}

// insert records the key find left in keyBuf, with hash h, as oid.
func (s *SkolemEnv) insert(h uint64, oid graph.OID) {
	s.keys = append(s.keys, s.keyBuf...)
	s.offs = append(s.offs, int32(len(s.keys)))
	s.oids = append(s.oids, oid)
	s.next = append(s.next, s.index[h])
	s.index[h] = int32(len(s.oids))
	s.used[string(oid)] = true
}

// render produces the display-form oid for fn(args...), disambiguated
// against already-issued oids.
func (s *SkolemEnv) render(fn string, args []graph.Value) graph.OID {
	b := append(s.oidBuf[:0], fn...)
	b = append(b, '(')
	for i, a := range args {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendSanitized(b, a.Text())
	}
	b = append(b, ')')
	s.oidBuf = b
	if !s.used[string(b)] {
		return graph.OID(b)
	}
	base := string(b)
	for n := 2; ; n++ {
		cand := base + "#" + itoa(n)
		if !s.used[cand] {
			return graph.OID(cand)
		}
	}
}

// maxArg bounds an argument's rendered length inside an oid.
const maxArg = 48

// sanitizeArg makes an argument safe inside an oid: parentheses, commas,
// and whitespace become underscores, and long arguments are truncated with
// a length marker so oids stay readable.
func sanitizeArg(s string) string {
	mapped := strings.Map(sanitizeRune, s)
	if len(mapped) > maxArg {
		mapped = mapped[:maxArg] + "~" + itoa(len(s))
	}
	return mapped
}

func sanitizeRune(r rune) rune {
	switch r {
	case '(', ')', ',', ' ', '\t', '\n', '#':
		return '_'
	default:
		return r
	}
}

// appendSanitized appends sanitizeArg(s) to dst. ASCII arguments — the
// overwhelmingly common case — map byte by byte with no intermediate
// string; anything else routes through sanitizeArg so the rune-level
// semantics (including invalid-UTF-8 replacement) stay identical.
func appendSanitized(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return append(dst, sanitizeArg(s)...)
		}
	}
	start := len(dst)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch c {
		case '(', ')', ',', ' ', '\t', '\n', '#':
			c = '_'
		}
		dst = append(dst, c)
	}
	if len(dst)-start > maxArg {
		dst = dst[:start+maxArg]
		dst = append(dst, '~')
		dst = appendItoa(dst, len(s))
	}
	return dst
}

func itoa(n int) string {
	return string(appendItoa(nil, n))
}

func appendItoa(dst []byte, n int) []byte {
	if n == 0 {
		return append(dst, '0')
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return append(dst, buf[i:]...)
}

// Size returns the number of distinct applications recorded.
func (s *SkolemEnv) Size() int { return len(s.oids) }
