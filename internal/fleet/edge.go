package fleet

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"strudel/internal/dynamic"
	"strudel/internal/htmlgen"
	"strudel/internal/obs"
)

// Cluster is what the edge fronts: something that can route a page key
// to a shard, render the page there (with replica failover), and report
// the current data generation. *Fleet implements it in-process; the
// test harness also implements it over real HTTP replicas to prove the
// network path changes nothing.
type Cluster interface {
	Route(key string) int
	Fetch(ctx context.Context, shard int, key string, ref dynamic.PageRef) (body string, gen int64, err error)
	Generation() int64
	GenTime(gen int64) time.Time
	LastSwap() time.Time
	EntryPoints() []dynamic.PageRef
	KnownFn(fn string) bool
}

// Edge is the HTTP front of the fleet: it routes page requests by
// consistent-hashed page key, caches rendered pages keyed by (page,
// generation), serves conditional GETs with generation-scoped ETags and
// Last-Modified, serves stale pages inside a bounded
// stale-while-revalidate window after a hot reload (refreshing in the
// background), and degrades to 503 + Retry-After when a shard has no
// live replica.
//
// Cache coherence is by generation, not TTL: a swap bumps the fleet
// generation, which instantly reclassifies every cached page as stale —
// no invalidation fan-out, no stale page older than the SWR window.
type Edge struct {
	Cluster Cluster
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
	// entry is evicted. 0 means DefaultMaxEntries.
	MaxEntries int
	// Health is reported by /healthz (shared with the reloader).
	Health *dynamic.Health
	// Obs receives edge counters and latency; nil disables.
	Obs *obs.FleetMetrics
	// Logger receives server-side error detail; nil uses the default.
	Logger *log.Logger
	// Now is the clock used for staleness decisions; nil means time.Now.
	// A test seam: the stale-while-revalidate boundary is exact, so
	// tests pin the clock instead of racing it.
	Now func() time.Time

	mu     sync.Mutex
	cache  map[string]*edgeEntry
	reval  map[string]bool // page keys with a background revalidation in flight
	clock  int64           // LRU tick
	inited bool
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
	used    int64
}

// NewEdge returns an edge over a cluster.
func NewEdge(c Cluster) *Edge {
	return &Edge{
		Cluster:        c,
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
	if !e.inited {
		e.cache = map[string]*edgeEntry{}
		e.reval = map[string]bool{}
		e.inited = true
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

// Handler returns the edge's HTTP handler:
// recovery(healthz | shed(deadline(metrics(pages)))), the same
// middleware contract as the single-evaluator server.
func (e *Edge) Handler() http.Handler {
	e.init()
	pages := http.NewServeMux()
	pages.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		root := e.Root
		if root.Fn == "" {
			roots := e.Cluster.EntryPoints()
			if len(roots) == 0 {
				http.Error(w, "site has no entry points", http.StatusNotFound)
				return
			}
			root = roots[0]
		}
		e.servePage(w, r, EncodeRef(root), root)
	})
	pages.HandleFunc("/page/", func(w http.ResponseWriter, r *http.Request) {
		raw := strings.TrimPrefix(r.URL.Path, "/page/")
		key, err := url.PathUnescape(raw)
		if err != nil {
			http.Error(w, "bad page key", http.StatusBadRequest)
			return
		}
		ref, err := DecodeRef(key)
		if err != nil {
			http.Error(w, "bad page key", http.StatusBadRequest)
			return
		}
		if !e.Cluster.KnownFn(ref.Fn) {
			http.Error(w, "unknown page "+ref.Fn, http.StatusNotFound)
			return
		}
		// Canonicalize so cache keys and routing are independent of how
		// the client spelled the key.
		e.servePage(w, r, EncodeRef(ref), ref)
	})

	root := http.NewServeMux()
	root.HandleFunc("/healthz", e.serveHealth)
	root.Handle("/", e.withShedding(e.withDeadline(e.withMetrics(pages))))
	return e.withRecovery(root)
}

func (e *Edge) withMetrics(next http.Handler) http.Handler {
	if e.Obs == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		e.Obs.EdgeRequests.Inc()
		start := time.Now()
		defer func() { e.Obs.EdgeNanos.Observe(int64(time.Since(start))) }()
		next.ServeHTTP(w, r)
	})
}

func (e *Edge) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				e.logf("fleet: panic serving %s: %v\n%s", r.URL.Path, rec, debug.Stack())
				http.Error(w, "internal server error", http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func (e *Edge) withShedding(next http.Handler) http.Handler {
	if e.MaxInflight <= 0 {
		return next
	}
	sem := make(chan struct{}, e.MaxInflight)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
			next.ServeHTTP(w, r)
		default:
			w.Header().Set("Retry-After", "1")
			http.Error(w, "server overloaded, retry shortly", http.StatusServiceUnavailable)
		}
	})
}

func (e *Edge) withDeadline(next http.Handler) http.Handler {
	if e.RequestTimeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), e.RequestTimeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

func (e *Edge) serveHealth(w http.ResponseWriter, r *http.Request) {
	h := e.Health
	if h == nil {
		h = dynamic.NewHealth()
	}
	e.mu.Lock()
	n := len(e.cache)
	e.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.Write(h.StatusJSON(n))
}

// lookup returns the cached entry for a key, touching its LRU stamp.
func (e *Edge) lookup(key string) *edgeEntry {
	e.mu.Lock()
	defer e.mu.Unlock()
	ent := e.cache[key]
	if ent != nil {
		e.clock++
		ent.used = e.clock
	}
	return ent
}

// store caches a fetched page, evicting the least recently used entry
// past the bound. An entry older than what is already cached for the
// key (a slow fetch racing a fresher one) is discarded.
func (e *Edge) store(key string, ent *edgeEntry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if old := e.cache[key]; old != nil && old.gen > ent.gen {
		return
	}
	maxN := e.MaxEntries
	if maxN <= 0 {
		maxN = DefaultMaxEntries
	}
	if _, exists := e.cache[key]; !exists && len(e.cache) >= maxN {
		var lruKey string
		var lruUsed int64 = 1<<63 - 1
		for k, v := range e.cache {
			if v.used < lruUsed {
				lruKey, lruUsed = k, v.used
			}
		}
		delete(e.cache, lruKey)
	}
	e.clock++
	ent.used = e.clock
	e.cache[key] = ent
}

// fetch renders a page through the cluster and wraps it as a cache
// entry.
func (e *Edge) fetch(ctx context.Context, key string, ref dynamic.PageRef) (*edgeEntry, error) {
	body, gen, err := e.Cluster.Fetch(ctx, e.Cluster.Route(key), key, ref)
	if err != nil {
		return nil, err
	}
	return &edgeEntry{
		body:    body,
		gen:     gen,
		etag:    ETag(gen, body),
		lastMod: e.Cluster.GenTime(gen).Truncate(time.Second),
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
//   - otherwise → fetch synchronously from the owning shard.
func (e *Edge) servePage(w http.ResponseWriter, r *http.Request, key string, ref dynamic.PageRef) {
	cur := e.Cluster.Generation()
	ent := e.lookup(key)
	conditional := r.Header.Get("If-None-Match") != "" || r.Header.Get("If-Modified-Since") != ""

	switch {
	case ent != nil && ent.gen >= cur:
		if e.Obs != nil {
			e.Obs.CacheHits.Inc()
		}
	case ent != nil && !conditional && e.StaleFor > 0 && e.now().Sub(e.Cluster.LastSwap()) <= e.StaleFor:
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
			e.failRequest(w, r, err)
			return
		}
		e.store(key, fresh)
		ent = fresh
	}
	e.writeEntry(w, r, ent)
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

// failRequest maps fetch errors to responses: a dead shard is 503 +
// Retry-After (the fleet may heal), a deadline 504, everything else a
// sanitized 500 with detail logged server-side only.
func (e *Edge) failRequest(w http.ResponseWriter, r *http.Request, err error) {
	var down ErrShardDown
	switch {
	case errors.As(err, &down):
		e.logf("fleet: %s: %v", r.URL.Path, err)
		w.Header().Set("Retry-After", retryAfterSeconds(down.RetryAfter))
		http.Error(w, "shard unavailable, retry shortly", http.StatusServiceUnavailable)
	case errors.Is(err, context.DeadlineExceeded):
		e.logf("fleet: %s: request deadline exceeded: %v", r.URL.Path, err)
		http.Error(w, "request timed out", http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled):
		e.logf("fleet: %s: request cancelled by client: %v", r.URL.Path, err)
	default:
		e.logf("fleet: %s: internal error: %v", r.URL.Path, err)
		http.Error(w, "internal server error", http.StatusInternalServerError)
	}
}

// retryAfterSeconds formats a recovery hint as a Retry-After header
// value: whole seconds, rounded up, at least 1 (clients treat 0 as
// "retry immediately", which defeats the point of the hint).
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

// CacheSize returns the number of cached pages (for /healthz and
// tests).
func (e *Edge) CacheSize() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cache)
}
