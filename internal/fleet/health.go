package fleet

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"strudel/internal/obs"
)

// This file is the gray-failure tolerance layer's state: a per-replica
// health state machine driven by both passive request outcomes and
// active probes, and the grayState bundle (health grid, latency
// tracking, hedge/retry budgets) every fleet fetch runs through,
// whichever transport its attempts cross.
//
// The binary alive/dead model PR 8 shipped handles a killed replica;
// the common production failure is grayer — a replica that is slow, or
// up-down-up within seconds. Health states map onto routing policy:
//
//	healthy  — full traffic (breaker closed, not slow)
//	suspect  — routed only when no healthy sibling answers first; a
//	           replica with a short failure streak or a latency profile
//	           far above its siblings'
//	probing  — breaker half-open: a bounded trickle of trials
//	ejected  — breaker open: no traffic until the cool-down, except as
//	           the fail-static last resort when every sibling refuses
type HState int32

const (
	HealthHealthy HState = iota
	HealthSuspect
	HealthProbing
	HealthEjected
)

func (s HState) String() string {
	switch s {
	case HealthHealthy:
		return "healthy"
	case HealthSuspect:
		return "suspect"
	case HealthProbing:
		return "probing"
	case HealthEjected:
		return "ejected"
	}
	return "unknown"
}

// GrayConfig tunes the gray-failure tolerance layer. The zero value
// takes every default; DisableHedge turns tail-latency hedging off.
type GrayConfig struct {
	// Breaker configures each replica's circuit breaker.
	Breaker BreakerConfig
	// SuspectAfter consecutive failures demote a replica to suspect
	// (still below the breaker's trip threshold).
	SuspectAfter int
	// SlowFactor demotes a replica to suspect when its latency EWMA
	// exceeds SlowFactor × the fastest sibling's EWMA and SlowMin —
	// the degraded-but-available regime where nothing errors but one
	// replica answers far slower than its peers. 0 disables.
	SlowFactor float64
	SlowMin    time.Duration

	// The hedge timer arms at the hedgeQuantile of recent request
	// latencies, clamped to [HedgeMinDelay, HedgeMaxDelay]: when the
	// primary attempt outlives it, the same render fires on the next
	// replica and the first success wins. HedgeRatio (with hedgeBurst)
	// bounds hedges to a fraction of offered load (the global hedge
	// budget that prevents retry storms).
	HedgeMinDelay time.Duration
	HedgeMaxDelay time.Duration
	HedgeRatio    float64
	DisableHedge  bool

	// RetryRatio/RetryBurst bound failover retries the same way.
	RetryRatio float64
	RetryBurst float64

	// AttemptTimeout bounds each single replica attempt inside a fetch,
	// so a stalled replica triggers failover before the whole request
	// deadline burns down. 0 leaves attempts bounded only by the
	// request context.
	AttemptTimeout time.Duration

	// ProbeInterval is the active health-check period (per replica);
	// ProbeTimeout bounds each probe render. Probes run only once
	// StartHealthChecks is called.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration

	// Clock is the test seam; nil means time.Now.
	Clock func() time.Time
}

func (c GrayConfig) withDefaults() GrayConfig {
	if c.Clock == nil {
		c.Clock = time.Now
	}
	// The breaker inherits the gray clock before its own defaulting
	// fills in time.Now.
	if c.Breaker.Clock == nil {
		c.Breaker.Clock = c.Clock
	}
	c.Breaker = c.Breaker.withDefaults()
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 2
	}
	if c.SlowFactor == 0 {
		c.SlowFactor = 4
	}
	if c.SlowMin <= 0 {
		c.SlowMin = 5 * time.Millisecond
	}
	if c.HedgeMinDelay <= 0 {
		c.HedgeMinDelay = 2 * time.Millisecond
	}
	if c.HedgeMaxDelay <= 0 {
		c.HedgeMaxDelay = 500 * time.Millisecond
	}
	if c.HedgeRatio <= 0 {
		c.HedgeRatio = 0.1
	}
	if c.RetryRatio <= 0 {
		c.RetryRatio = 0.2
	}
	if c.RetryBurst <= 0 {
		c.RetryBurst = 64
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	return c
}

// hedgeQuantile is the fetch-latency quantile that arms the hedge
// timer; hedgeBurst is the hedge budget's bucket size.
const (
	hedgeQuantile = 0.95
	hedgeBurst    = 32
)

// attemptOutcome classifies one finished replica attempt for health
// accounting.
type attemptOutcome int

const (
	// outcomeOK: the replica answered (even a deterministic page error
	// counts — the replica is alive and prompt).
	outcomeOK attemptOutcome = iota
	// outcomeFail: the replica refused, stalled past its attempt
	// deadline, or failed at the transport.
	outcomeFail
	// outcomeLost: the attempt was cancelled because a sibling won the
	// race (or the whole request died); no breaker signal, but the
	// elapsed time still feeds the slowness EWMA — losing to a hedge
	// is itself evidence of slowness.
	outcomeLost
	// outcomeProbeOK: an active probe succeeded; like outcomeOK but the
	// latency stays out of the hedge-delay quantile so slow-replica
	// probes cannot inflate everyone's hedge trigger.
	outcomeProbeOK
)

const ewmaAlpha = 0.2

// ReplicaHealth is one replica's health account: its breaker plus a
// latency EWMA.
type ReplicaHealth struct {
	g  *grayState
	br *Breaker

	mu      sync.Mutex
	ewma    float64 // nanoseconds; 0 = no samples yet
	wasSlow bool
}

// State derives the routing state from the breaker and the latency
// account.
func (h *ReplicaHealth) State() HState {
	switch h.br.State() {
	case BreakerOpen:
		return HealthEjected
	case BreakerHalfOpen:
		return HealthProbing
	}
	if h.br.ConsecutiveFailures() >= h.g.cfg.SuspectAfter || h.slow() {
		return HealthSuspect
	}
	return HealthHealthy
}

// Breaker exposes the underlying breaker (tests, /debug/vars).
func (h *ReplicaHealth) Breaker() *Breaker { return h.br }

func (h *ReplicaHealth) ewmaNanos() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ewma
}

func (h *ReplicaHealth) observeLatency(d time.Duration) {
	h.mu.Lock()
	if h.ewma == 0 {
		h.ewma = float64(d)
	} else {
		h.ewma = (1-ewmaAlpha)*h.ewma + ewmaAlpha*float64(d)
	}
	h.mu.Unlock()
}

// slow reports whether this replica's latency EWMA marks it as the
// gray one: far above the fastest sibling and above the absolute
// floor. Comparing against the minimum (not the mean) keeps a single
// slow replica from dragging the reference point toward itself, and
// leaves a uniformly loaded fleet alone.
func (h *ReplicaHealth) slow() bool {
	if h.g.cfg.SlowFactor <= 0 {
		return false
	}
	own := h.ewmaNanos()
	if own < float64(h.g.cfg.SlowMin) {
		return false
	}
	minSib := h.g.minEwma()
	if minSib == 0 {
		return false
	}
	isSlow := own > h.g.cfg.SlowFactor*minSib
	h.mu.Lock()
	if isSlow && !h.wasSlow {
		h.g.count(func(m *obs.FleetMetrics) { m.SlowDemotions.Inc() })
	}
	h.wasSlow = isSlow
	h.mu.Unlock()
	return isSlow
}

// releaseFn finishes an acquired attempt slot with its outcome.
type releaseFn func(outcome attemptOutcome, elapsed time.Duration)

// acquire admits one attempt against this replica. With forced=false a
// refusing breaker returns ok=false; forced=true always admits (the
// fail-static last resort and active probes) while still recording the
// outcome. The returned release must be called exactly once.
func (h *ReplicaHealth) acquire(forced bool) (releaseFn, bool) {
	ok, trial := h.br.Allow()
	if !ok && !forced {
		return nil, false
	}
	if trial {
		h.g.count(func(m *obs.FleetMetrics) { m.BreakerProbes.Inc() })
	}
	var once sync.Once
	rel := func(outcome attemptOutcome, elapsed time.Duration) {
		once.Do(func() {
			switch outcome {
			case outcomeOK, outcomeProbeOK:
				h.observeLatency(elapsed)
				if outcome == outcomeOK {
					h.g.observeFetchLatency(elapsed)
				}
				if _, closed := h.br.Record(true, trial); closed {
					h.g.count(func(m *obs.FleetMetrics) { m.BreakerCloses.Inc() })
				}
			case outcomeFail:
				if tripped, _ := h.br.Record(false, trial); tripped {
					h.g.count(func(m *obs.FleetMetrics) { m.BreakerTrips.Inc() })
				}
			case outcomeLost:
				if elapsed > 0 {
					h.observeLatency(elapsed)
				}
				// Release the trial slot without an outcome signal.
				if trial {
					h.br.ReleaseTrial()
				}
			}
		})
	}
	return rel, true
}

// grayState bundles the per-replica health grid with the fleet-wide
// latency histogram and token budgets. Each Fleet owns one.
type grayState struct {
	cfg GrayConfig
	// health[shard][replica]
	health [][]*ReplicaHealth
	lat    obs.Histogram // successful fetch latencies → hedge delay quantile
	hedge  *ratioBudget
	retry  *ratioBudget
	obs    *obs.FleetMetrics
	rr     []atomic.Uint32
}

// newGrayState builds the health grid for shards × replicas.
func newGrayState(cfg GrayConfig, shards, replicas int, m *obs.FleetMetrics) *grayState {
	cfg = cfg.withDefaults()
	g := &grayState{
		cfg:   cfg,
		hedge: newRatioBudget(cfg.HedgeRatio, hedgeBurst),
		retry: newRatioBudget(cfg.RetryRatio, cfg.RetryBurst),
		obs:   m,
		rr:    make([]atomic.Uint32, shards),
	}
	g.health = make([][]*ReplicaHealth, shards)
	for s := range g.health {
		g.health[s] = make([]*ReplicaHealth, replicas)
		for i := range g.health[s] {
			g.health[s][i] = &ReplicaHealth{g: g, br: newBreaker(cfg.Breaker)}
		}
	}
	return g
}

func (g *grayState) count(f func(*obs.FleetMetrics)) {
	if g.obs != nil {
		f(g.obs)
	}
}

func (g *grayState) now() time.Time { return g.cfg.Clock() }

// Health returns one replica's health account.
func (g *grayState) Health(shard, i int) *ReplicaHealth { return g.health[shard][i] }

func (g *grayState) observeFetchLatency(d time.Duration) {
	g.lat.Observe(int64(d))
}

// minEwma returns the smallest latency EWMA across every replica with
// samples (the slowness reference point).
func (g *grayState) minEwma() float64 {
	min := 0.0
	for _, shard := range g.health {
		for _, h := range shard {
			if e := h.ewmaNanos(); e > 0 && (min == 0 || e < min) {
				min = e
			}
		}
	}
	return min
}

// hedgeDelay is the quantile-tracked delay before a hedge fires. Until
// enough samples exist the floor applies — hedging aggressively on a
// cold fleet is safe because the burst budget bounds it.
func (g *grayState) hedgeDelay() time.Duration {
	const minSamples = 16
	if g.lat.Count() < minSamples {
		return g.cfg.HedgeMinDelay
	}
	d := time.Duration(g.lat.Quantile(hedgeQuantile))
	if d < g.cfg.HedgeMinDelay {
		d = g.cfg.HedgeMinDelay
	}
	if d > g.cfg.HedgeMaxDelay {
		d = g.cfg.HedgeMaxDelay
	}
	return d
}

// order returns a shard's replica indices in routing order: the
// rotation spreads load, then a stable sort pushes suspect, probing,
// and ejected replicas toward the back without starving any of them.
func (g *grayState) order(shard int) []int {
	n := len(g.health[shard])
	start := int(g.rr[shard].Add(1))
	idxs := make([]int, n)
	prio := make([]int, n)
	for i := 0; i < n; i++ {
		idx := (start + i) % n
		idxs[i] = idx
		prio[idx] = int(g.health[shard][idx].State())
	}
	sort.SliceStable(idxs, func(a, b int) bool { return prio[idxs[a]] < prio[idxs[b]] })
	return idxs
}

// recoveryHint estimates when a down shard is worth retrying: the
// soonest any of its breakers re-admits trials, clamped to [1s, 30s].
// This is what the edge's Retry-After derives from when the backend
// offered nothing better.
func (g *grayState) recoveryHint(shard int) time.Duration {
	if shard < 0 || shard >= len(g.health) {
		return time.Second
	}
	var soonest time.Duration
	for _, h := range g.health[shard] {
		if r := h.br.RetryIn(); r > 0 && (soonest == 0 || r < soonest) {
			soonest = r
		}
	}
	if soonest < time.Second {
		soonest = time.Second
	}
	if soonest > 30*time.Second {
		soonest = 30 * time.Second
	}
	return soonest
}

// Snapshot reports per-replica health states and the layer's derived
// signals — the /debug/vars "fleet_health" group.
func (g *grayState) Snapshot() map[string]any {
	out := map[string]any{
		"hedge_delay_nanos": int64(g.hedgeDelay()),
		"hedge_tokens":      g.hedge.Tokens(),
		"retry_tokens":      g.retry.Tokens(),
	}
	for s, shard := range g.health {
		for i, h := range shard {
			key := fmt.Sprintf("shard%d_replica%d", s, i)
			out[key] = h.State().String()
			out[key+"_ewma_nanos"] = int64(h.ewmaNanos())
		}
	}
	return out
}

// startProbes runs the active health checker: one goroutine per
// replica renders a cheap probe every ProbeInterval under ProbeTimeout
// and feeds the outcome into that replica's breaker. Probing is what
// turns "ejected" into a self-healing state even with zero user
// traffic, and what detects a replica that died silently before any
// user request finds out.
func (g *grayState) startProbes(ctx context.Context, probe func(ctx context.Context, shard, idx int) error) {
	for s := range g.health {
		for i := range g.health[s] {
			go func(shard, idx int) {
				t := time.NewTicker(g.cfg.ProbeInterval)
				defer t.Stop()
				for {
					select {
					case <-ctx.Done():
						return
					case <-t.C:
					}
					h := g.health[shard][idx]
					rel, _ := h.acquire(true)
					pctx, cancel := context.WithTimeout(ctx, g.cfg.ProbeTimeout)
					start := g.now()
					err := probe(pctx, shard, idx)
					cancel()
					g.count(func(m *obs.FleetMetrics) { m.Probes.Inc() })
					if err != nil {
						g.count(func(m *obs.FleetMetrics) { m.ProbeFailures.Inc() })
						rel(outcomeFail, 0)
					} else {
						rel(outcomeProbeOK, g.now().Sub(start))
					}
				}
			}(s, i)
		}
	}
}
