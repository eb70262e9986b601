package spine

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestLRUEvictsLeastRecentlyUsed drives the cache with seeded gets,
// peeks and puts past its bound and checks it against a model recency
// list: exactly the least recently used key is evicted, Get and Put mark
// a key used, Peek does not.
func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	const n = 8
	c := NewLRU[string, int](n)
	var model []string // least recently used first
	vals := map[string]int{}
	touch := func(k string) {
		for i, m := range model {
			if m == k {
				model = append(model[:i], model[i+1:]...)
				break
			}
		}
		model = append(model, k)
	}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 4000; step++ {
		k := fmt.Sprintf("k%d", rng.Intn(3*n))
		want, cached := vals[k]
		switch rng.Intn(3) {
		case 0, 1:
			get := c.Peek
			if rng.Intn(2) == 0 {
				get = c.Get
				if cached {
					touch(k)
				}
			}
			if v, ok := get(k); ok != cached || v != want {
				t.Fatalf("step %d: lookup(%s) = %d, %v; model %d, %v", step, k, v, ok, want, cached)
			}
		default:
			c.Put(k, step)
			if !cached && len(model) == n {
				delete(vals, model[0])
				model = model[1:]
			}
			vals[k] = step
			touch(k)
		}
		if c.Len() != len(model) {
			t.Fatalf("step %d: cache holds %d entries, model %d", step, c.Len(), len(model))
		}
		for _, m := range model {
			if _, ok := c.Peek(m); !ok {
				t.Fatalf("step %d: %s evicted, but the least recently used was %s", step, m, model[0])
			}
		}
	}
}

// BenchmarkLRUPut times one insert of a new key below the bound and past
// it, where every insert evicts.
func BenchmarkLRUPut(b *testing.B) {
	const n = 8192
	keys := make([]string, 2*n)
	for i := range keys {
		keys[i] = fmt.Sprintf("Pub;s%06d", i)
	}
	b.Run("below", func(b *testing.B) {
		var c *LRU[string, *int]
		for i := 0; i < b.N; i++ {
			k := i % n
			if k == 0 {
				b.StopTimer()
				c = NewLRU[string, *int](n)
				b.StartTimer()
			}
			c.Put(keys[k], nil)
		}
	})
	b.Run("above", func(b *testing.B) {
		c := NewLRU[string, *int](n)
		for _, k := range keys[:n] {
			c.Put(k, nil)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Put(keys[(n+i)%len(keys)], nil)
		}
	})
}
