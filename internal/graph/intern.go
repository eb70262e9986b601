package graph

// Interner is a string dictionary: it assigns dense uint32 ids to
// distinct strings in first-intern order. The frozen snapshot uses it to
// dictionary-encode labels, OIDs, and atom payloads — with no schema to
// factor repetition out of the data, attribute names and Skolem-oid
// fragments repeat constantly, and interning them is where the
// compression comes from.
type Interner struct {
	idx  map[string]uint32
	strs []string
}

// NewInterner returns an empty dictionary.
func NewInterner() *Interner {
	return &Interner{idx: make(map[string]uint32)}
}

// Intern returns the id of s, assigning the next free id on first sight.
func (in *Interner) Intern(s string) uint32 {
	if id, ok := in.idx[s]; ok {
		return id
	}
	id := uint32(len(in.strs))
	in.idx[s] = id
	in.strs = append(in.strs, s)
	return id
}

// Lookup returns the id of s without interning it.
func (in *Interner) Lookup(s string) (uint32, bool) {
	id, ok := in.idx[s]
	return id, ok
}

// Str returns the string with the given id; it panics on out-of-range ids.
func (in *Interner) Str(id uint32) string { return in.strs[id] }

// Len returns the number of distinct strings interned.
func (in *Interner) Len() int { return len(in.strs) }

// Strings returns the backing dictionary in id order. The slice is
// shared: callers must not modify it.
func (in *Interner) Strings() []string { return in.strs }
