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
	// entry i's key is keys[offs[i]:offs[i+1]], its hash hashes[i] and
	// its oid oids[i].
	index  map[uint64]int32
	next   []int32
	keys   []byte
	offs   []int32
	hashes []uint64
	oids   []graph.OID
	// entryOf maps every issued oid (keys are graph.OID strings) to its
	// 1-based entry: Carry's lookup, and the "#n" disambiguation of
	// display-form collisions.
	entryOf map[string]int32
	// keyBuf and oidBuf are reused across OID calls.
	keyBuf []byte
	oidBuf []byte
}

// NewSkolemEnv returns an empty environment.
func NewSkolemEnv() *SkolemEnv { return newSkolemEnv(maphash.MakeSeed(), 0) }

func newSkolemEnv(seed maphash.Seed, size int) *SkolemEnv {
	return &SkolemEnv{
		seed:    seed,
		index:   make(map[uint64]int32, size),
		next:    make([]int32, 0, size),
		offs:    append(make([]int32, 0, size+1), 0),
		hashes:  make([]uint64, 0, size),
		oids:    make([]graph.OID, 0, size),
		entryOf: make(map[string]int32, size),
	}
}

// Successor returns an empty environment with s's hash seed and room
// for size applications, into which Carry copies s's applications
// without re-deriving their keys.
func (s *SkolemEnv) Successor(size int) *SkolemEnv { return newSkolemEnv(s.seed, size) }

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
	s.insert(h, s.keyBuf, oid)
	return oid
}

// Entry returns the 0-based entry of the application s issued (or
// carried) as oid; entries number applications in the order s recorded
// them, so a caller can keep per-application data in a parallel slice.
func (s *SkolemEnv) Entry(oid graph.OID) (int, bool) {
	i, ok := s.entryOf[string(oid)]
	return int(i) - 1, ok
}

// Carry records in s from's entry i under the same oid, copying its
// stored key and hash; s must be from's Successor (or a Successor of
// one), so the hashes agree. It reports whether it recorded a new entry
// (numbered Size()-1): false when s already records the application,
// which then keeps its oid. A carried oid's display form stays taken
// for later applications.
func (s *SkolemEnv) Carry(from *SkolemEnv, i int) bool {
	key, h := from.keys[from.offs[i]:from.offs[i+1]], from.hashes[i]
	if s.lookup(h, key) != 0 {
		return false
	}
	s.insert(h, key, from.oids[i])
	return true
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
	return h, s.lookup(h, buf)
}

// lookup returns the 1-based entry of key, whose hash is h, 0 when it is
// not recorded.
func (s *SkolemEnv) lookup(h uint64, key []byte) int32 {
	for i := s.index[h]; i != 0; i = s.next[i-1] {
		if bytes.Equal(s.keys[s.offs[i-1]:s.offs[i]], key) {
			return i
		}
	}
	return 0
}

// insert records key, with hash h, as oid.
func (s *SkolemEnv) insert(h uint64, key []byte, oid graph.OID) {
	s.keys = append(s.keys, key...)
	s.offs = append(s.offs, int32(len(s.keys)))
	s.hashes = append(s.hashes, h)
	s.oids = append(s.oids, oid)
	s.next = append(s.next, s.index[h])
	s.index[h] = int32(len(s.oids))
	s.entryOf[string(oid)] = int32(len(s.oids))
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
	if _, taken := s.entryOf[string(b)]; !taken {
		return graph.OID(b)
	}
	base := string(b)
	for n := 2; ; n++ {
		cand := base + "#" + itoa(n)
		if _, taken := s.entryOf[cand]; !taken {
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
