package fleet

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"strings"
	"sync"
	"time"

	"strudel/internal/dynamic"
	"strudel/internal/htmlgen"
	"strudel/internal/obs"
	"strudel/internal/spine"
)

// Edge is the HTTP front of the fleet: it routes page requests by
// consistent-hashed page key, caches rendered pages keyed by (page,
// generation), serves conditional GETs with generation-scoped ETags and
// Last-Modified, serves stale pages inside a bounded
// stale-while-revalidate window after a hot reload (refreshing in the
// background), and degrades to a typed 503 + Retry-After when a shard
// has no live replica.
//
// Cache coherence is by generation, not TTL: a swap bumps the fleet
// generation, which instantly reclassifies every cached page as stale —
// no invalidation fan-out, no stale page older than the SWR window.
type Edge struct {
	Fleet *Fleet
	// Root overrides the page served at "/"; zero Fn uses the first
	// entry point.
	Root dynamic.PageRef
	// StaleFor bounds how long after a generation bump a stale cached
	// page may still be served while a fresh one is fetched in the
	// background. 0 disables stale serving (every stale hit refetches
	// synchronously).
	StaleFor time.Duration
	// RequestTimeout bounds each page request (and each background
	// revalidation); 0 disables.
	RequestTimeout time.Duration
	// MaxInflight bounds concurrently served page requests; excess is
	// shed with 503 + Retry-After. 0 means unlimited.
	MaxInflight int
	// MaxEntries bounds the page cache; past it the least recently used
	// entry is evicted. 0 means DefaultMaxEntries. Set it before Handler.
	MaxEntries int
	// Health is reported by /healthz (shared with the reloader).
	Health *dynamic.Health
	// Obs receives edge counters and latency; nil disables.
	Obs *obs.FleetMetrics
	// ServeObs receives the page front's in-flight gauge and its shed,
	// timeout and panic counters; nil disables.
	ServeObs *obs.ServeMetrics
	// Logger receives server-side error detail; nil uses the default.
	Logger *log.Logger
	// Now is the clock used for staleness decisions; nil means time.Now.
	// A test seam: the stale-while-revalidate boundary is exact, so
	// tests pin the clock instead of racing it.
	Now func() time.Time

	mu    sync.Mutex
	cache *spine.LRU[string, *edgeEntry] // page key → cached page
	reval map[string]bool                // page keys with a background revalidation in flight
}

// DefaultMaxEntries is the page-cache bound when MaxEntries is 0.
const DefaultMaxEntries = 8192

// edgeEntry is one cached page: the bytes, the generation that fully
// determined them, and the derived validators.
type edgeEntry struct {
	body    string
	gen     int64
	etag    string
	lastMod time.Time
}

// NewEdge returns an edge over a fleet.
func NewEdge(f *Fleet) *Edge {
	return &Edge{
		Fleet:          f,
		StaleFor:       2 * time.Second,
		RequestTimeout: 10 * time.Second,
		Health:         dynamic.NewHealth(),
	}
}

func (e *Edge) now() time.Time {
	if e.Now != nil {
		return e.Now()
	}
	return time.Now()
}

func (e *Edge) logf(format string, args ...any) {
	if e.Logger != nil {
		e.Logger.Printf(format, args...)
		return
	}
	log.Printf(format, args...)
}

func (e *Edge) init() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cache == nil {
		maxN := e.MaxEntries
		if maxN <= 0 {
			maxN = DefaultMaxEntries
		}
		e.cache = spine.NewLRU[string, *edgeEntry](maxN)
		e.reval = map[string]bool{}
	}
}

// ETag renders the generation-scoped entity tag of a page body. The
// generation half makes a hot reload invalidate every client-held
// validator at once (a conditional GET after a reload always gets a
// full 200, even for a byte-identical page); the content half
// distinguishes pages within a generation.
func ETag(gen int64, body string) string {
	return fmt.Sprintf(`"g%d-%s"`, gen, htmlgen.PageHash(body))
}

// Handler returns the edge's HTTP handler: every route behind the
// serving spine's chain, /healthz outside its shedding and deadline so
// a saturated edge can still be probed.
func (e *Edge) Handler() http.Handler {
	e.init()
	c := &spine.Chain{
		Name:        "edge",
		Logger:      e.Logger,
		Timeout:     e.RequestTimeout,
		MaxInflight: e.MaxInflight,
		Bypass:      map[string]http.HandlerFunc{"/healthz": e.serveHealth},
	}
	if m := e.Obs; m != nil {
		c.Metrics.Requests, c.Metrics.Latency = &m.EdgeRequests, &m.EdgeNanos
	}
	if m := e.ServeObs; m != nil {
		c.Metrics.InFlight, c.Metrics.Shed = &m.InFlight, &m.Shed
		c.Metrics.Timeouts, c.Metrics.Panics = &m.Timeouts, &m.Panics
	}
	pages := http.NewServeMux()
	pages.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			spine.NotFound(w, r)
			return
		}
		root := e.Root
		if root.Fn == "" {
			roots := e.Fleet.EntryPoints()
			if len(roots) == 0 {
				spine.Write(w, &spine.Error{Code: spine.CodeNotFound, Message: "site has no entry points"})
				return
			}
			root = roots[0]
		}
		if err := e.servePage(w, r, EncodeRef(root), root); err != nil {
			c.Fail(w, r, err)
		}
	})
	pages.HandleFunc("/page/", func(w http.ResponseWriter, r *http.Request) {
		ref, err := refFromPath(r.URL.Path)
		if err != nil {
			spine.Write(w, &spine.Error{Code: spine.CodeBadRequest, Message: "bad page key"})
			return
		}
		if !e.Fleet.KnownFn(ref.Fn) {
			spine.Write(w, &spine.Error{Code: spine.CodeNotFound, Message: "unknown page " + ref.Fn})
			return
		}
		// Canonicalize so cache keys and routing are independent of how
		// the client spelled the key.
		if err := e.servePage(w, r, EncodeRef(ref), ref); err != nil {
			c.Fail(w, r, err)
		}
	})
	return c.Handler(pages)
}

func (e *Edge) serveHealth(w http.ResponseWriter, r *http.Request) {
	h := e.Health
	if h == nil {
		h = dynamic.NewHealth()
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(h.StatusJSON(e.CacheSize()))
}

// lookup returns the cached entry for a key, marking it most recently
// used.
func (e *Edge) lookup(key string) *edgeEntry {
	e.mu.Lock()
	defer e.mu.Unlock()
	ent, _ := e.cache.Get(key)
	return ent
}

// store caches a fetched page, evicting the least recently used entry
// past the bound. An entry older than what is already cached for the
// key (a slow fetch racing a fresher one) is discarded.
func (e *Edge) store(key string, ent *edgeEntry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if old, ok := e.cache.Peek(key); ok && old.gen > ent.gen {
		return
	}
	e.cache.Put(key, ent)
}

// fetch renders a page through the fleet and wraps it as a cache
// entry.
func (e *Edge) fetch(ctx context.Context, key string, ref dynamic.PageRef) (*edgeEntry, error) {
	body, gen, err := e.Fleet.Fetch(ctx, e.Fleet.Route(key), key, ref)
	if err != nil {
		return nil, err
	}
	return &edgeEntry{
		body:    body,
		gen:     gen,
		etag:    ETag(gen, body),
		lastMod: e.Fleet.GenTime(gen).Truncate(time.Second),
	}, nil
}

// revalidate refreshes a stale entry in the background, single-flight
// per page key.
func (e *Edge) revalidate(key string, ref dynamic.PageRef) {
	e.mu.Lock()
	if e.reval[key] {
		e.mu.Unlock()
		return
	}
	e.reval[key] = true
	e.mu.Unlock()
	if e.Obs != nil {
		e.Obs.Revalidations.Inc()
	}
	go func() {
		defer func() {
			e.mu.Lock()
			delete(e.reval, key)
			e.mu.Unlock()
		}()
		ctx := context.Background()
		if e.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, e.RequestTimeout)
			defer cancel()
		}
		ent, err := e.fetch(ctx, key, ref)
		if err != nil {
			e.logf("fleet: background revalidation of %s failed: %v", key, err)
			return
		}
		e.store(key, ent)
	}()
}

// servePage is the edge's request path. Freshness is generational:
//
//   - entry.gen ≥ current generation → fresh: serve from cache,
//     answering a matching If-None-Match with 304.
//   - entry.gen < current, within StaleFor of the swap → serve the
//     stale bytes now (tagged with their own generation's validators)
//     and revalidate in the background. Conditional requests are the
//     exception: a validator cannot be confirmed against a stale entry,
//     so they revalidate synchronously — which is what makes "304 until
//     reload, 200 with a new ETag right after" observable.
//   - otherwise → fetch synchronously from the owning shard; a failed
//     fetch is returned for the chain to answer, with nothing written.
func (e *Edge) servePage(w http.ResponseWriter, r *http.Request, key string, ref dynamic.PageRef) error {
	cur := e.Fleet.Generation()
	ent := e.lookup(key)
	conditional := r.Header.Get("If-None-Match") != "" || r.Header.Get("If-Modified-Since") != ""

	switch {
	case ent != nil && ent.gen >= cur:
		if e.Obs != nil {
			e.Obs.CacheHits.Inc()
		}
	case ent != nil && !conditional && e.StaleFor > 0 && e.now().Sub(e.Fleet.LastSwap()) <= e.StaleFor:
		if e.Obs != nil {
			e.Obs.StaleServed.Inc()
		}
		e.revalidate(key, ref)
	default:
		if e.Obs != nil {
			if ent == nil {
				e.Obs.CacheMisses.Inc()
			} else {
				e.Obs.Revalidations.Inc()
			}
		}
		fresh, err := e.fetch(r.Context(), key, ref)
		if err != nil {
			return err
		}
		e.store(key, fresh)
		ent = fresh
	}
	e.writeEntry(w, r, ent)
	return nil
}

// writeEntry emits a cache entry, honoring conditional validators.
func (e *Edge) writeEntry(w http.ResponseWriter, r *http.Request, ent *edgeEntry) {
	h := w.Header()
	h.Set("ETag", ent.etag)
	h.Set("Last-Modified", ent.lastMod.UTC().Format(http.TimeFormat))
	h.Set("Cache-Control", "no-cache") // validators, not TTLs, drive freshness
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		if ETagMatch(inm, ent.etag) {
			if e.Obs != nil {
				e.Obs.NotModified.Inc()
			}
			w.WriteHeader(http.StatusNotModified)
			return
		}
	} else if ims := r.Header.Get("If-Modified-Since"); ims != "" {
		if t, err := http.ParseTime(ims); err == nil && !ent.lastMod.UTC().After(t) {
			if e.Obs != nil {
				e.Obs.NotModified.Inc()
			}
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	h.Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, ent.body)
}

// ETagMatch reports whether etag satisfies an If-None-Match header: "*"
// or a comma-separated list of entity tags, compared weakly (RFC 9110
// §13.1.2), so W/ prefixes are ignored.
func ETagMatch(header, etag string) bool {
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, part := range strings.Split(header, ",") {
		t := strings.TrimSpace(part)
		t = strings.TrimPrefix(t, "W/")
		if t == etag {
			return true
		}
	}
	return false
}

// CacheSize returns the number of cached pages (for /healthz and
// tests).
func (e *Edge) CacheSize() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cache.Len()
}
