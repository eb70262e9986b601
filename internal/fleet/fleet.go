package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"strudel/internal/dynamic"
	"strudel/internal/mediator"
	"strudel/internal/obs"
	"strudel/internal/schema"
	"strudel/internal/spine"
	"strudel/internal/struql"
	"strudel/internal/template"
)

// Config describes a fleet: the site definition every replica serves,
// and the fleet shape.
type Config struct {
	// Schema is the site schema (required).
	Schema *schema.Schema
	// Templates and the PerFn/Default selection mirror dynamic.Renderer.
	Templates *template.Set
	PerFn     map[string]string
	Default   string
	// Shards is the number of page-space partitions (≥1); Replicas the
	// number of independently failing serving units per shard (≥1).
	Shards   int
	Replicas int
	// Lookahead turns on link-following precomputation in the fleet's
	// evaluator, like dynamic.Evaluator.Lookahead.
	Lookahead bool
	// Gray tunes the gray-failure tolerance layer (health-checked
	// routing, hedged requests, circuit breakers, retry budgets). The
	// zero value takes every default.
	Gray GrayConfig
	// Obs receives fleet-level counters; ServeObs is threaded into the
	// fleet's one evaluator (cache hits, queries run). Both nil-safe.
	Obs      *obs.FleetMetrics
	ServeObs *obs.ServeMetrics
}

// ErrReplicaDown marks a fetch refused (or abandoned mid-render)
// because the replica was killed; the edge fails over to a sibling.
var ErrReplicaDown = errors.New("fleet: replica down")

// ErrShardDown marks a page request whose owning shard had no live
// replica left; the edge degrades to 503 + Retry-After. RetryAfter is
// the serving tier's recovery estimate: the backend's own Retry-After
// hint when one was offered, otherwise the soonest any of the shard's
// circuit breakers re-admits trials.
type ErrShardDown struct {
	Shard      int
	RetryAfter time.Duration
}

func (e ErrShardDown) Error() string {
	return fmt.Sprintf("fleet: shard %d has no live replica", e.Shard)
}

// TypedError places a dead shard in the serving taxonomy: a 503 whose
// Retry-After is the recovery estimate.
func (e ErrShardDown) TypedError() *spine.Error {
	return &spine.Error{Code: spine.CodeUnavailable, RetryAfter: spine.RetryAfterSeconds(e.RetryAfter),
		Message: fmt.Sprintf("shard %d has no live replica", e.Shard)}
}

// Replica is one serving unit of one shard: a unit of failure (life
// context, health, breaker), not of cache — it renders through the
// fleet's one renderer and the generation's one page cache. Replicas of
// the same shard answer the same page requests; replicas of different
// shards are never asked for each other's pages.
type Replica struct {
	shard, index int
	srv          *dynamic.Renderer

	// life is cancelled by Kill, so in-flight renders on a killed
	// replica stop promptly instead of hanging toward their deadline.
	mu     sync.Mutex
	down   bool
	life   context.Context
	cancel context.CancelFunc
}

// Down reports whether the replica is killed.
func (r *Replica) Down() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.down
}

// Kill takes the replica out of service: new fetches are refused and
// in-flight renders are cancelled. Chaos tests use it to prove edge
// failover; a real deployment would reach the same state by losing the
// process.
func (r *Replica) Kill() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.down {
		r.down = true
		r.cancel()
	}
}

// Revive returns a killed replica to service.
func (r *Replica) Revive() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.down {
		r.down = false
		r.life, r.cancel = context.WithCancel(context.Background())
	}
}

func (r *Replica) lifeCtx() (context.Context, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.life, r.down
}

// guard turns a panic in site code (evaluation, templates) into an
// error (spine.Recovered). Replica attempts run on goroutines of their own,
// out of reach of any handler's recovery, so an unrecovered panic there
// would take the whole process down; as an error it answers one request
// with a 500 and is not failed over, since a sibling holding the same
// generation would panic the same way.
func guard(err *error) {
	if p := recover(); p != nil {
		*err = spine.Recovered(p)
	}
}

// Render renders one page on this replica, reporting the data
// generation every byte was computed from.
func (r *Replica) Render(ctx context.Context, ref dynamic.PageRef) (string, int64, error) {
	return r.run(ctx, func(ctx context.Context) (string, int64, error) {
		return r.srv.RenderPageGen(ctx, ref)
	})
}

// run is every call on a replica: a killed replica refuses
// immediately; a kill mid-call cancels the call's context and reports
// ErrReplicaDown so the caller fails over instead of surfacing a
// spurious cancellation; a panic becomes an error (guard).
func (r *Replica) run(ctx context.Context, call func(context.Context) (string, int64, error)) (_ string, _ int64, err error) {
	defer guard(&err)
	life, down := r.lifeCtx()
	if down {
		return "", 0, ErrReplicaDown
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(life, cancel)
	defer stop()
	out, gen, err := call(rctx)
	if err != nil {
		// The request's own context ending is the caller's problem; the
		// replica dying under the call is ours to report as such.
		if ctx.Err() == nil && life.Err() != nil {
			return "", gen, ErrReplicaDown
		}
		return "", gen, err
	}
	return out, gen, nil
}

// transport makes one attempt at one page on one replica: the
// in-process Replica.Render, or a GET to that replica's server.
type transport func(ctx context.Context, shard, idx int, key string, ref dynamic.PageRef) (body string, gen int64, err error)

// Fleet is the coordinator: the ring, the shard/replica grid, and the
// one evaluator whose generation every replica serves. It implements
// dynamic.Swapper, so the hot-reload loop publishes new data to the
// whole fleet with one swap, exactly as it did to a single evaluator.
type Fleet struct {
	cfg  Config
	ring *Ring
	// srv renders for every replica; its evaluator holds the generation
	// (snapshot, page cache, single-flight table, Skolem environment).
	srv *dynamic.Renderer
	// grid[shard][replica]
	grid [][]*Replica
	// gray is the gray-failure tolerance state: per-replica health and
	// breakers, hedge/retry budgets, latency tracking, and the
	// rotation counters routing starts from.
	gray *grayState
	// attempt is the replica transport: one try of one page on one
	// replica. New sets the in-process call; ServeOverHTTP replaces it
	// with a GET to that replica's server.
	attempt transport

	start time.Time

	// swapMu serializes swaps; genTimes records when recent generations
	// were published (Last-Modified needs a stable time per generation).
	swapMu   sync.Mutex
	genMu    sync.Mutex
	genTimes map[int64]time.Time
}

// keptGenTimes bounds the generation→publish-time memory; older
// generations fall back to the fleet start time (their pages are long
// since invalidated anyway).
const keptGenTimes = 16

// New builds a fleet over an initial data source. A generation's data
// is one immutable source, normally the *graph.Frozen the warehouse or
// the reload built, and the fleet's one evaluator reads it. That
// evaluator's page cache serves every replica, as a (generation, page
// oid) pair fully determines a page, and its one Skolem environment
// gives every display-form oid; page keys (EncodeRef) do not depend on
// it.
func New(cfg Config, src struql.Source) (*Fleet, error) {
	if cfg.Schema == nil {
		return nil, fmt.Errorf("fleet: config needs a schema")
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.Templates == nil {
		cfg.Templates = template.NewSet()
	}
	f := &Fleet{
		cfg:      cfg,
		ring:     NewRing(cfg.Shards),
		grid:     make([][]*Replica, cfg.Shards),
		gray:     newGrayState(cfg.Gray, cfg.Shards, cfg.Replicas, cfg.Obs),
		start:    time.Now(),
		genTimes: map[int64]time.Time{},
	}
	f.attempt = func(ctx context.Context, shard, idx int, _ string, ref dynamic.PageRef) (string, int64, error) {
		return f.grid[shard][idx].Render(ctx, ref)
	}
	ev := dynamic.NewEvaluator(cfg.Schema, src)
	ev.Obs = cfg.ServeObs
	ev.Lookahead = cfg.Lookahead
	f.srv = dynamic.NewRenderer(ev, cfg.Templates, PageURL)
	if cfg.PerFn != nil {
		f.srv.PerFn = cfg.PerFn
	}
	f.srv.Default = cfg.Default
	for s := 0; s < cfg.Shards; s++ {
		f.grid[s] = make([]*Replica, cfg.Replicas)
		for i := 0; i < cfg.Replicas; i++ {
			rep := &Replica{shard: s, index: i, srv: f.srv}
			rep.life, rep.cancel = context.WithCancel(context.Background())
			f.grid[s][i] = rep
		}
	}
	if m := cfg.Obs; m != nil {
		m.Generation.Set(0)
	}
	return f, nil
}

// Shards returns the shard count; ReplicasPerShard the replica count.
func (f *Fleet) Shards() int           { return f.cfg.Shards }
func (f *Fleet) ReplicasPerShard() int { return f.cfg.Replicas }

// Replica returns one replica (for chaos tests and direct inspection).
func (f *Fleet) Replica(shard, i int) *Replica { return f.grid[shard][i] }

// Generation returns the fleet's current data generation (0 until the
// first swap).
func (f *Fleet) Generation() int64 { return f.srv.Ev.Generation() }

// GenTime returns the publish time of a generation, for Last-Modified:
// the swap wall time for recent generations, the fleet start time for
// generation 0 and anything since evicted.
func (f *Fleet) GenTime(gen int64) time.Time {
	f.genMu.Lock()
	defer f.genMu.Unlock()
	if t, ok := f.genTimes[gen]; ok {
		return t
	}
	return f.start
}

// LastSwap returns when the current generation was published (the fleet
// start time before any swap). The edge measures its
// stale-while-revalidate window from it.
func (f *Fleet) LastSwap() time.Time { return f.GenTime(f.Generation()) }

// Route returns the shard owning a page key.
func (f *Fleet) Route(key string) int { return f.ring.Shard(key) }

// KnownFn reports whether a Skolem function exists in the site schema —
// the edge's 404 test for decoded-but-meaningless page refs.
func (f *Fleet) KnownFn(fn string) bool {
	for _, n := range f.cfg.Schema.Nodes {
		if n == fn {
			return true
		}
	}
	return false
}

// EntryPoints returns the site's unconditional entry pages (it is
// schema-derived).
func (f *Fleet) EntryPoints() []dynamic.PageRef {
	return f.srv.Ev.EntryPoints()
}

// Fetch renders a page on the owning shard through the gray-failure
// policy: health-ordered replica selection, tail-latency hedging, and
// budget-bounded failover (see hedge.go), each attempt crossing the
// fleet's transport. A down (or dying-mid-render) replica sends the
// request to the next; only when every replica has refused does the
// shard count as down. Page evaluation errors are NOT failed over —
// they are deterministic functions of the data, so a sibling would
// fail identically.
func (f *Fleet) Fetch(ctx context.Context, shard int, key string, ref dynamic.PageRef) (string, int64, error) {
	return f.gray.fetch(ctx, shard, func(ctx context.Context, idx int) (string, int64, error) {
		return f.attempt(ctx, shard, idx, key, ref)
	})
}

// Health returns one replica's health account (tests, drills).
func (f *Fleet) Health(shard, i int) *ReplicaHealth { return f.gray.Health(shard, i) }

// HealthSnapshot exposes the gray layer's per-replica states and
// derived signals for /debug/vars (the "fleet_health" group).
func (f *Fleet) HealthSnapshot() map[string]any { return f.gray.Snapshot() }

// StartHealthChecks launches the active prober: every replica renders
// the site's first entry point over the fleet's transport each
// Gray.ProbeInterval, bounded by Gray.ProbeTimeout, feeding its
// breaker. Probing stops when ctx ends.
func (f *Fleet) StartHealthChecks(ctx context.Context) {
	entries := f.EntryPoints()
	if len(entries) == 0 {
		return
	}
	probe := entries[0]
	key := EncodeRef(probe)
	f.gray.startProbes(ctx, func(ctx context.Context, shard, idx int) error {
		_, _, err := f.attempt(ctx, shard, idx, key, probe)
		return err
	})
}

// SwapData implements dynamic.Swapper: it records the next generation's
// publish time, then hands its source to the fleet's evaluator, which
// keeps the cached pages the delta leaves valid; kept and dropped count
// each page once. A request racing the swap is served entirely from the
// generation its render began with (the per-request snapshot
// guarantee), and the response is tagged with that generation, so the
// edge never caches a mixed or mislabeled page.
func (f *Fleet) SwapData(src struql.Source, d *mediator.Delta) (kept, dropped int) {
	f.swapMu.Lock()
	defer f.swapMu.Unlock()
	next := f.Generation() + 1 // only SwapData swaps the evaluator
	now := time.Now()
	f.genMu.Lock()
	f.genTimes[next] = now
	if len(f.genTimes) > keptGenTimes {
		oldest := next
		for g := range f.genTimes {
			if g < oldest {
				oldest = g
			}
		}
		delete(f.genTimes, oldest)
	}
	f.genMu.Unlock()
	kept, dropped = f.srv.Ev.SwapData(src, d)
	if m := f.cfg.Obs; m != nil {
		m.Swaps.Inc()
		m.Generation.Set(next)
	}
	return kept, dropped
}
