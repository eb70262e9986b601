package spine

// LRU is the serving tier's one bounded cache: a map that, past its
// bound, evicts exactly its least recently used entry, in O(1). The edge's
// page cache, the query API's result cache and its introspection memo
// are each one LRU. It is not safe for concurrent use: its owner holds
// its own lock around every call.
//
// Entries live in a slice of slots linked into a circular recency list
// through slot 0, its sentinel; an eviction reuses the evicted slot, so a
// full cache inserts without allocating.
type LRU[K comparable, V any] struct {
	max   int
	index map[K]int
	slots []lruSlot[K, V]
}

type lruSlot[K comparable, V any] struct {
	key        K
	val        V
	prev, next int
}

// NewLRU returns an empty cache of at most max entries (at least one).
func NewLRU[K comparable, V any](max int) *LRU[K, V] {
	return &LRU[K, V]{max: max, index: map[K]int{}, slots: make([]lruSlot[K, V], 1)}
}

// Len returns the number of cached entries.
func (c *LRU[K, V]) Len() int { return len(c.index) }

// Peek returns the value cached under k without marking it used.
func (c *LRU[K, V]) Peek(k K) (V, bool) {
	i, ok := c.index[k]
	return c.slots[i].val, ok
}

// Get returns the value cached under k and marks it most recently used.
func (c *LRU[K, V]) Get(k K) (V, bool) {
	i, ok := c.index[k]
	if ok {
		c.unlink(i)
		c.pushFront(i)
	}
	return c.slots[i].val, ok
}

// Put caches v under k as the most recently used entry, evicting the
// least recently used one if k is new and the cache is full.
func (c *LRU[K, V]) Put(k K, v V) {
	i, ok := c.index[k]
	switch {
	case ok:
		c.unlink(i)
	case len(c.index) >= max(c.max, 1):
		i = c.slots[0].prev
		c.unlink(i)
		delete(c.index, c.slots[i].key)
	default:
		i = len(c.slots)
		c.slots = append(c.slots, lruSlot[K, V]{})
	}
	c.slots[i].key, c.slots[i].val = k, v
	c.index[k] = i
	c.pushFront(i)
}

func (c *LRU[K, V]) unlink(i int) {
	s := &c.slots[i]
	c.slots[s.prev].next, c.slots[s.next].prev = s.next, s.prev
}

func (c *LRU[K, V]) pushFront(i int) {
	head := c.slots[0].next
	c.slots[i].prev, c.slots[i].next = 0, head
	c.slots[head].prev, c.slots[0].next = i, i
}
