package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"strudel/internal/dynamic"
	"strudel/internal/obs"
)

// TestStaleWhileRevalidateExactBoundary pins the edge clock and probes
// the -stale-for window at its exact edge: a request landing exactly
// StaleFor after the swap is still inside the window (<=) and gets the
// stale bytes; one nanosecond later it is outside and fetches
// synchronously at the new generation.
func TestStaleWhileRevalidateExactBoundary(t *testing.T) {
	s := buildSchema(t)
	g0, g1 := genSiteData(11), mutateSiteData(11)
	f := newTestFleet(t, s, g0, 1, 1)
	var m obs.FleetMetrics
	e := NewEdge(f)
	e.Obs = &m
	e.StaleFor = 2 * time.Second
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	refs := crawlRefs(t, newReference(t, s, g0))
	if len(refs) < 2 {
		t.Fatal("need at least two pages")
	}
	atBoundary, pastBoundary := refs[0], refs[1]

	// Prime both pages at generation 0, then reload.
	for _, ref := range []dynamic.PageRef{atBoundary, pastBoundary} {
		if status, _, _ := get(t, ts, PageURL(ref), nil); status != http.StatusOK {
			t.Fatalf("prime GET %s failed", PageURL(ref))
		}
	}
	f.SwapData(g1.Freeze(), nil)
	swapAt := f.LastSwap()

	// Exactly StaleFor after the swap: still stale-servable.
	e.Now = func() time.Time { return swapAt.Add(e.StaleFor) }
	status, hdr, _ := get(t, ts, PageURL(atBoundary), nil)
	if status != http.StatusOK {
		t.Fatalf("boundary GET = %d", status)
	}
	if gen := etagGen(t, hdr.Get("ETag")); gen != 0 {
		t.Fatalf("at the exact boundary the stale generation-0 entry should serve, got gen %d", gen)
	}
	if m.StaleServed.Load() != 1 {
		t.Fatalf("StaleServed = %d, want 1", m.StaleServed.Load())
	}

	// One nanosecond past: the window is over, fetch synchronously.
	e.Now = func() time.Time { return swapAt.Add(e.StaleFor + time.Nanosecond) }
	status, hdr, _ = get(t, ts, PageURL(pastBoundary), nil)
	if status != http.StatusOK {
		t.Fatalf("past-boundary GET = %d", status)
	}
	if gen := etagGen(t, hdr.Get("ETag")); gen != 1 {
		t.Fatalf("past the window the fetch must be synchronous at gen 1, got gen %d", gen)
	}
	if m.StaleServed.Load() != 1 {
		t.Fatalf("StaleServed = %d after the window closed, want still 1", m.StaleServed.Load())
	}
}

// slowTransport wraps a fleet's transport, counting attempts and
// delaying each one — the slow backend that makes revalidation collapse
// observable.
func slowTransport(f *Fleet, delay time.Duration) (fetches *atomic.Int64) {
	fetches = new(atomic.Int64)
	inner := f.attempt
	f.attempt = func(ctx context.Context, shard, idx int, key string, ref dynamic.PageRef) (string, int64, error) {
		fetches.Add(1)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return "", 0, ctx.Err()
		}
		return inner(ctx, shard, idx, key, ref)
	}
	return fetches
}

// TestSingleFlightRevalidationCollapses fires many concurrent requests
// at one stale page over a slow backend: every request is served stale
// immediately, and all of them collapse into a single background
// revalidation fetch.
func TestSingleFlightRevalidationCollapses(t *testing.T) {
	s := buildSchema(t)
	g0, g1 := genSiteData(13), mutateSiteData(13)
	f := newTestFleet(t, s, g0, 1, 1)
	fetches := slowTransport(f, 150*time.Millisecond)
	e := NewEdge(f)
	e.StaleFor = time.Hour // every post-swap request lands inside the window
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	ref := f.EntryPoints()[0]
	if status, _, _ := get(t, ts, PageURL(ref), nil); status != http.StatusOK {
		t.Fatal("prime failed")
	}
	if got := fetches.Load(); got != 1 {
		t.Fatalf("prime fetches = %d", got)
	}
	f.SwapData(g1.Freeze(), nil)

	const concurrent = 16
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, hdr, _ := get(t, ts, PageURL(ref), nil)
			if status != http.StatusOK {
				t.Errorf("concurrent GET = %d", status)
			}
			if gen := etagGen(t, hdr.Get("ETag")); gen != 0 {
				t.Errorf("stale window should serve gen 0 instantly, got %d", gen)
			}
		}()
	}
	wg.Wait()
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Fatalf("stale serves blocked on the slow backend: %v for %d requests", el, concurrent)
	}

	// Wait for the background revalidation to land; the polling GETs
	// are stale hits (or, at the end, fresh hits) and never fetch.
	deadline := time.Now().Add(5 * time.Second)
	var gen int64
	for time.Now().Before(deadline) {
		_, hdr, _ := get(t, ts, PageURL(ref), nil)
		if gen = etagGen(t, hdr.Get("ETag")); gen == 1 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if gen != 1 {
		t.Fatalf("revalidation never landed, still at gen %d", gen)
	}
	// All sixteen stale hits collapsed into one revalidation fetch.
	if got := fetches.Load(); got != 2 {
		t.Fatalf("backend fetches = %d, want 2 (prime + one collapsed revalidation)", got)
	}
}
