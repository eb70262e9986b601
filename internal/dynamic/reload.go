package dynamic

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"strudel/internal/graph"
	"strudel/internal/mediator"
	"strudel/internal/obs"
	"strudel/internal/struql"
)

// Reloader watches source files and hot-reloads the data graph: when
// files change, the affected sources are re-wrapped through the
// mediator in one all-or-nothing Refresh, and the mediator's new
// snapshot is handed with the delta to the attached Swapper — an
// evaluator or fleet, which invalidates its caches by the delta, or the
// incremental site of `strudel -watch`. A failed reload — parse error,
// missing file, injected fault — degrades gracefully: the consumer keeps
// the last-good graph, Health reports degraded, and the reloader retries
// with exponential backoff plus jitter until the sources are loadable
// again.
type Reloader struct {
	// Interval is the poll period; Run's ticker fires at this rate.
	Interval time.Duration
	// Logger receives reload/degradation logs; nil uses the default.
	Logger *log.Logger
	// OnApply, when set, observes every successful swap (tests hook it).
	OnApply func(d *mediator.Delta, kept, dropped int)
	// Obs, when non-nil, receives reload attempt/failure/outcome counters.
	// Set before Run; nil disables.
	Obs *obs.ServeMetrics
	// IVM, when non-nil, counts the deltas handed to the Swapper. Set
	// before Run; nil disables.
	IVM *obs.IVMMetrics

	med     *mediator.Mediator
	sources []mediator.Source
	// backoffMin and backoffMax bound the exponential retry backoff after
	// failed reloads (doubling per consecutive failure); jitter is the ±
	// fraction applied to each delay (0.2 = ±20%) so a fleet of servers
	// does not retry in lockstep.
	backoffMin, backoffMax time.Duration
	jitter                 float64

	mu sync.Mutex // guards everything below (tick vs. Kick vs. tests)
	sw Swapper
	hl *Health
	// stamps records the last-seen mtime+size per path.
	stamps map[string]fileStamp
	// pending names sources whose change was detected but not yet
	// successfully re-wrapped; it is all a failed round leaves behind.
	pending map[string]bool
	// backoff is the current retry delay; nextTry gates attempts.
	backoff time.Time
	delay   time.Duration
	kick    chan struct{}
	rng     *rand.Rand
}

type fileStamp struct {
	mtime time.Time
	size  int64
	ok    bool
	// hash is an FNV-64a content hash, computed only for files whose
	// mtime is recent (within the hash window): a sub-second edit can
	// leave mtime and size unchanged on filesystems with coarse
	// timestamps, and only the content betrays it. hashed records
	// whether hash is meaningful.
	hash   uint64
	hashed bool
}

// changedFrom reports whether st differs from old. Metadata decides
// first; equal metadata falls back to the content hash when both sides
// have one (a quiescent file outside the hash window costs one stat and
// no read).
func (st fileStamp) changedFrom(old fileStamp) bool {
	if st.ok != old.ok || st.size != old.size || !st.mtime.Equal(old.mtime) {
		return true
	}
	return st.hashed && old.hashed && st.hash != old.hash
}

// NewReloader builds a reloader (and its mediator) over sources. Every
// source must list the Paths whose changes signal that it must be
// re-wrapped. A path that cannot be stat'ed counts as changed: the
// reload attempt then surfaces the real error (missing file,
// permission) through Load.
func NewReloader(sources ...mediator.Source) (*Reloader, error) {
	for _, s := range sources {
		if len(s.Paths) == 0 {
			return nil, fmt.Errorf("dynamic: watched source %q has no paths to poll", s.Name)
		}
	}
	m, err := mediator.New(sources...)
	if err != nil {
		return nil, err
	}
	return &Reloader{
		Interval:   2 * time.Second,
		med:        m,
		sources:    sources,
		backoffMin: 500 * time.Millisecond,
		backoffMax: 30 * time.Second,
		jitter:     0.2,
		stamps:     map[string]fileStamp{},
		pending:    map[string]bool{},
		kick:       make(chan struct{}, 1),
		rng:        rand.New(rand.NewSource(time.Now().UnixNano())),
	}, nil
}

// Warehouse performs the initial load of every source and returns the
// merged data graph's snapshot. It records the file stamps first, so the
// first poll does not re-report the initial state as a change, while an
// edit that lands during the load is still seen by the next poll
// instead of being stamped as already loaded.
func (r *Reloader) Warehouse() (*graph.Frozen, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	for _, s := range r.sources {
		for _, p := range s.Paths {
			r.stamps[p] = r.statPath(p, now)
		}
	}
	return r.med.Warehouse()
}

// Swapper receives atomically published data generations from the
// reload loop. Evaluator implements it directly; the fleet coordinator
// implements it by handing the snapshot to every shard replica and
// bumping the fleet generation.
type Swapper interface {
	SwapData(src struql.Source, d *mediator.Delta) (kept, dropped int)
}

// AttachSwapper connects the reloader to the Swapper it publishes
// generations to — a single evaluator or a whole fleet — and the health
// it reports into. Call before Run. A nil sw must be an untyped nil: a
// typed-nil *Evaluator would be called into on the first swap.
func (r *Reloader) AttachSwapper(sw Swapper, h *Health) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sw = sw
	r.hl = h
}

// Kick requests an immediate poll (subject to backoff), without waiting
// for the next ticker fire.
func (r *Reloader) Kick() {
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// Run polls until the context ends. Start it in its own goroutine.
func (r *Reloader) Run(ctx context.Context) {
	ticker := time.NewTicker(r.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		case <-r.kick:
		}
		r.Tick(time.Now())
	}
}

func (r *Reloader) logf(format string, args ...any) {
	if r.Logger != nil {
		r.Logger.Printf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// hashWindow is how far back an mtime still triggers a content hash:
// generously past the poll interval, so every file that plausibly
// changed since the last poll gets hashed, while long-quiescent files
// cost one stat each.
func (r *Reloader) hashWindow() time.Duration {
	return 2*r.Interval + 2*time.Second
}

// statPath stamps a file: metadata always, content hash only when the
// mtime is within the hash window.
func (r *Reloader) statPath(path string, now time.Time) fileStamp {
	fi, err := os.Stat(path)
	if err != nil {
		return fileStamp{ok: false}
	}
	st := fileStamp{mtime: fi.ModTime(), size: fi.Size(), ok: true}
	if now.Sub(st.mtime) < r.hashWindow() {
		if h, err := hashFile(path); err == nil {
			st.hash, st.hashed = h, true
		}
	}
	return st
}

// hashFile is FNV-64a over the file contents — collision quality is
// irrelevant here, only "did the bytes change" cheaply.
func hashFile(path string) (uint64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h, nil
}

// Tick runs one poll step at the given time: detect changed sources,
// attempt the reload unless backing off, and on failure degrade and
// schedule the retry. Exported as the deterministic test entry point;
// Run calls it with the wall clock.
func (r *Reloader) Tick(now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()

	// Change detection always runs (so changes during backoff are not
	// lost), but reload attempts respect the backoff gate.
	for _, s := range r.sources {
		for _, p := range s.Paths {
			st := r.statPath(p, now)
			if st.changedFrom(r.stamps[p]) {
				r.stamps[p] = st
				r.pending[s.Name] = true
			}
		}
	}
	if len(r.pending) == 0 || now.Before(r.backoff) {
		return
	}

	// Re-wrap every changed source in one transaction: a failure —
	// a source that does not load, or a merged graph past the snapshot's
	// id capacity — keeps the last good generation serving and every
	// changed source pending for the retry.
	names := make([]string, 0, len(r.pending))
	for _, s := range r.sources {
		if r.pending[s.Name] {
			names = append(names, s.Name)
		}
	}
	if r.Obs != nil {
		r.Obs.ReloadAttempts.Inc()
	}
	delta, err := r.med.Refresh(names...)
	if err != nil {
		r.fail(now, strings.Join(names, ", "), err)
		return
	}
	clear(r.pending)
	kept, dropped := 0, 0
	if r.sw != nil {
		kept, dropped = r.sw.SwapData(r.med.Data(), delta)
	}
	if r.IVM != nil {
		r.IVM.DeltasApplied.Inc()
	}
	if r.hl != nil {
		r.hl.SetHealthy()
	}
	r.delay = 0
	r.backoff = time.Time{}
	if r.Obs != nil {
		r.Obs.ReloadApplied.Inc()
		r.Obs.ReloadKept.Add(int64(kept))
		r.Obs.ReloadDropped.Add(int64(dropped))
	}
	if r.OnApply != nil {
		r.OnApply(delta, kept, dropped)
	}
	r.logf("dynamic: reload applied: %d changes, cache kept %d / dropped %d", delta.Size(), kept, dropped)
}

// fail records a failed reload: mark degraded, keep the sources pending,
// and push the next attempt out by an exponentially growing, jittered
// delay.
//
// Failure accounting distinguishes attempts from rounds: ReloadFailures
// counts every failed attempt (each backoff retry adds one), while
// ReloadRoundsFailed counts degraded windows — it is incremented only on
// the healthy→degraded transition (delay still zero), so a round that
// takes several retries before a successful swap still counts exactly
// once, and the next failure after that swap opens a new round.
func (r *Reloader) fail(now time.Time, source string, err error) {
	if r.Obs != nil {
		r.Obs.ReloadFailures.Inc()
		if r.delay == 0 {
			r.Obs.ReloadRoundsFailed.Inc()
		}
	}
	if r.hl != nil {
		r.hl.SetDegraded(fmt.Errorf("source %s: %w", source, err))
	}
	if r.delay == 0 {
		r.delay = r.backoffMin
	} else {
		r.delay *= 2
		if r.delay > r.backoffMax {
			r.delay = r.backoffMax
		}
	}
	d := r.delay
	if r.jitter > 0 {
		f := 1 + r.jitter*(2*r.rng.Float64()-1)
		d = time.Duration(float64(d) * f)
	}
	r.backoff = now.Add(d)
	r.logf("dynamic: reload of source %s failed (serving last-good data, retry in %v): %v", source, d.Round(time.Millisecond), err)
}

// RetryDelay returns the current backoff delay (0 when healthy); tests
// use it to assert exponential growth.
func (r *Reloader) RetryDelay() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.delay
}
