package fleet

import (
	"context"
	"errors"
	"fmt"
	"time"

	"strudel/internal/obs"
)

// This file is the hedged, health-routed, budget-bounded fetch every
// fleet fetch and query runs through, whichever transport its attempts
// cross. One fetch becomes a small race:
//
//  1. The primary attempt goes to the best replica the health grid
//     offers (rotation within the same state, healthy before suspect
//     before probing before ejected).
//  2. If the primary outlives the hedge delay — a tracked quantile of
//     recent fetch latencies — the same render fires on the next
//     replica and the first success wins. Hedges draw from a global
//     ratio budget so tail rescue can never become a retry storm.
//  3. A failed attempt (replica down, transport error, attempt
//     timeout) fails over to the next replica, drawing from the shared
//     retry budget. Deterministic page errors never fail over: a
//     sibling holding the same generation would fail identically.
//  4. When every replica refused, the shard is down: the error carries
//     a Retry-After derived from backend hints or breaker cool-downs.

// errAttemptTimeout marks a single replica attempt that outlived
// AttemptTimeout while the request as a whole still had time — the
// signal to fail over rather than give up.
var errAttemptTimeout = errors.New("fleet: replica attempt timed out")

// errLost marks an attempt cancelled because a sibling won the race.
var errLost = errors.New("fleet: attempt lost race")

// errUnavail is a transport-level replica failure on the HTTP path:
// connection refused/reset, a 503 from the replica server, a corrupt
// body caught by the end-to-end checksum, a 200 without the replica
// protocol's headers. It is always retryable and may carry the
// backend's Retry-After hint.
type errUnavail struct {
	RetryAfter time.Duration
	cause      error
}

func (e *errUnavail) Error() string {
	return fmt.Sprintf("fleet: replica unavailable: %v", e.cause)
}

func (e *errUnavail) Unwrap() error { return e.cause }

// retryableFetchErr reports whether an attempt error may be failed
// over to a sibling replica.
func retryableFetchErr(err error) bool {
	var unavail *errUnavail
	return errors.Is(err, ErrReplicaDown) ||
		errors.Is(err, errAttemptTimeout) ||
		errors.As(err, &unavail)
}

// fetchAttempt renders a page on one replica of the shard.
type fetchAttempt func(ctx context.Context, idx int) (body string, gen int64, err error)

type attemptRes struct {
	body    string
	gen     int64
	err     error
	idx     int
	hedged  bool
	elapsed time.Duration
}

// fetch runs one page fetch through the gray-failure policy.
func (g *grayState) fetch(ctx context.Context, shard int, attempt fetchAttempt) (string, int64, error) {
	if shard < 0 || shard >= len(g.health) {
		return "", 0, fmt.Errorf("fleet: no such shard %d", shard)
	}
	g.count(func(m *obs.FleetMetrics) { m.ShardFetches.Inc() })
	g.hedge.Deposit()
	g.retry.Deposit()

	order := g.order(shard)
	tried := make([]bool, len(g.health[shard]))
	results := make(chan attemptRes, len(order))
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()

	// launch starts the next untried candidate: the first whose health
	// admits it, or (forced) the first untried at all. Reports whether
	// an attempt started.
	pending := 0
	launch := func(forced, hedged bool) bool {
		for _, idx := range order {
			if tried[idx] {
				continue
			}
			rel, ok := g.health[shard][idx].acquire(forced)
			if !ok {
				continue
			}
			tried[idx] = true
			var actx context.Context
			var cancel context.CancelFunc
			if g.cfg.AttemptTimeout > 0 {
				actx, cancel = context.WithTimeoutCause(ctx, g.cfg.AttemptTimeout, errAttemptTimeout)
			} else {
				actx, cancel = context.WithCancel(ctx)
			}
			cancels = append(cancels, cancel)
			pending++
			go func(idx int, actx context.Context, rel releaseFn, hedged bool) {
				start := g.now()
				body, gen, err := attempt(actx, idx)
				elapsed := g.now().Sub(start)
				err = classifyAttempt(ctx, actx, err, rel, elapsed)
				results <- attemptRes{body: body, gen: gen, err: err, idx: idx, hedged: hedged, elapsed: elapsed}
			}(idx, actx, rel, hedged)
			return true
		}
		return false
	}

	forced := false
	if !launch(false, false) {
		// Every replica's breaker refuses: fail static — known-bad
		// replicas beat a guaranteed 503.
		forced = true
		if !launch(true, false) {
			return "", 0, ErrShardDown{Shard: shard, RetryAfter: g.recoveryHint(shard)}
		}
	}

	var timerC <-chan time.Time
	if !g.cfg.DisableHedge && len(order) > 1 {
		t := time.NewTimer(g.hedgeDelay())
		defer t.Stop()
		timerC = t.C
	}

	var lastErr error
	var hintRA time.Duration
	for pending > 0 {
		select {
		case <-timerC:
			timerC = nil
			if !g.hedge.Take() {
				g.count(func(m *obs.FleetMetrics) { m.HedgeBudgetExhausted.Inc() })
				continue
			}
			if launch(false, true) {
				g.count(func(m *obs.FleetMetrics) { m.Hedges.Inc() })
			}
		case r := <-results:
			pending--
			if r.err == nil {
				if r.hedged {
					g.count(func(m *obs.FleetMetrics) { m.HedgeWins.Inc() })
				}
				return r.body, r.gen, nil
			}
			if ctx.Err() != nil {
				return "", 0, fmt.Errorf("fleet: shard %d: %w", shard, ctx.Err())
			}
			if errors.Is(r.err, errLost) {
				continue
			}
			if !retryableFetchErr(r.err) {
				// Deterministic page failure: a sibling would fail the
				// same way. Surface it as-is.
				return "", r.gen, r.err
			}
			lastErr = r.err
			var unavail *errUnavail
			if errors.As(r.err, &unavail) && unavail.RetryAfter > hintRA {
				hintRA = unavail.RetryAfter
			}
			if pending > 0 {
				// A hedge is still racing; let it finish before
				// spending retry budget.
				continue
			}
			if !g.retry.Take() {
				g.count(func(m *obs.FleetMetrics) { m.RetryBudgetExhausted.Inc() })
				continue
			}
			started := launch(forced, false)
			if !started && !forced {
				// Only breaker-refused replicas remain: second pass,
				// forced.
				forced = true
				started = launch(true, false)
			}
			if started {
				g.count(func(m *obs.FleetMetrics) { m.Failovers.Inc() })
			}
		}
	}

	if lastErr == nil {
		lastErr = ErrReplicaDown
	}
	if retryableFetchErr(lastErr) {
		ra := g.recoveryHint(shard)
		if hintRA > ra {
			ra = hintRA
		}
		g.count(func(m *obs.FleetMetrics) { m.ShardDown.Inc() })
		return "", 0, ErrShardDown{Shard: shard, RetryAfter: ra}
	}
	return "", 0, lastErr
}

// classifyAttempt translates a finished attempt into its health
// outcome (recorded via rel) and a normalized error for the fetch
// loop.
func classifyAttempt(parent, actx context.Context, err error, rel releaseFn, elapsed time.Duration) error {
	switch {
	case err == nil:
		rel(outcomeOK, elapsed)
		return nil
	case parent.Err() != nil:
		// The whole request died (client gone, deadline): not the
		// replica's fault.
		rel(outcomeLost, 0)
		return parent.Err()
	case errors.Is(context.Cause(actx), errAttemptTimeout) && actx.Err() != nil:
		rel(outcomeFail, 0)
		return errAttemptTimeout
	case actx.Err() != nil && errors.Is(context.Cause(actx), context.Canceled):
		// Cancelled by the winner.
		rel(outcomeLost, elapsed)
		return errLost
	case retryableFetchErr(err):
		rel(outcomeFail, 0)
		return err
	default:
		// Deterministic page error: the replica answered, promptly.
		rel(outcomeOK, elapsed)
		return err
	}
}
