package fleet

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"strudel/internal/obs"
)

// hedgeGray builds a grayState for fetch-policy tests: real clock (the
// hedge timer needs one), tight hedge floor, no quantile warm-up
// surprises.
func hedgeGray(m *obs.FleetMetrics, replicas int, mut func(*GrayConfig)) *grayState {
	cfg := GrayConfig{
		HedgeMinDelay: 5 * time.Millisecond,
		HedgeMaxDelay: 5 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	return newGrayState(cfg, 1, replicas, m)
}

func TestFetchHedgeRescuesSlowReplica(t *testing.T) {
	var m obs.FleetMetrics
	g := hedgeGray(&m, 2, nil)
	// The first attempt launched is slow; any later one answers
	// immediately. Keyed by launch order, not replica index, so the
	// test is independent of routing rotation.
	var calls atomic.Int32
	attempt := func(ctx context.Context, idx int) (string, int64, error) {
		if calls.Add(1) == 1 {
			select {
			case <-time.After(400 * time.Millisecond):
				return "slow", 1, nil
			case <-ctx.Done():
				return "", 0, ctx.Err()
			}
		}
		return "fast", 1, nil
	}
	start := time.Now()
	body, gen, err := g.fetch(context.Background(), 0, attempt)
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if body != "fast" || gen != 1 {
		t.Fatalf("hedge should win: body=%q gen=%d", body, gen)
	}
	if el := time.Since(start); el > 200*time.Millisecond {
		t.Fatalf("hedged fetch took %v, want well under the slow replica's 400ms", el)
	}
	if m.Hedges.Load() != 1 || m.HedgeWins.Load() != 1 {
		t.Fatalf("hedges=%d wins=%d, want 1/1", m.Hedges.Load(), m.HedgeWins.Load())
	}
}

func TestFetchFailsOverOnReplicaDown(t *testing.T) {
	var m obs.FleetMetrics
	g := hedgeGray(&m, 2, func(c *GrayConfig) { c.DisableHedge = true })
	var calls atomic.Int32
	attempt := func(ctx context.Context, idx int) (string, int64, error) {
		if calls.Add(1) == 1 {
			return "", 0, ErrReplicaDown
		}
		return "ok", 3, nil
	}
	body, _, err := g.fetch(context.Background(), 0, attempt)
	if err != nil || body != "ok" {
		t.Fatalf("failover: body=%q err=%v", body, err)
	}
	if m.Failovers.Load() != 1 {
		t.Fatalf("Failovers = %d, want 1", m.Failovers.Load())
	}
}

func TestFetchDeterministicErrorDoesNotFailOver(t *testing.T) {
	var m obs.FleetMetrics
	g := hedgeGray(&m, 2, func(c *GrayConfig) { c.DisableHedge = true })
	pageErr := errors.New("template exploded")
	var calls atomic.Int32
	attempt := func(ctx context.Context, idx int) (string, int64, error) {
		calls.Add(1)
		return "", 7, pageErr
	}
	_, _, err := g.fetch(context.Background(), 0, attempt)
	if !errors.Is(err, pageErr) {
		t.Fatalf("err = %v, want the page error surfaced as-is", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d: a deterministic error must not burn siblings", calls.Load())
	}
	if m.Failovers.Load() != 0 {
		t.Fatal("deterministic errors must not count as failovers")
	}
}

func TestFetchAllReplicasDown(t *testing.T) {
	var m obs.FleetMetrics
	g := hedgeGray(&m, 2, func(c *GrayConfig) { c.DisableHedge = true })
	attempt := func(ctx context.Context, idx int) (string, int64, error) {
		return "", 0, ErrReplicaDown
	}
	_, _, err := g.fetch(context.Background(), 0, attempt)
	var down ErrShardDown
	if !errors.As(err, &down) {
		t.Fatalf("err = %v, want ErrShardDown", err)
	}
	if down.Shard != 0 {
		t.Fatalf("shard = %d", down.Shard)
	}
	if down.RetryAfter < time.Second {
		t.Fatalf("RetryAfter = %v, want at least the 1s floor", down.RetryAfter)
	}
	if m.ShardDown.Load() != 1 {
		t.Fatalf("ShardDown = %d, want 1", m.ShardDown.Load())
	}
}

func TestFetchAttemptTimeoutTriggersFailover(t *testing.T) {
	var m obs.FleetMetrics
	g := hedgeGray(&m, 2, func(c *GrayConfig) {
		c.DisableHedge = true
		c.AttemptTimeout = 30 * time.Millisecond
	})
	var calls atomic.Int32
	attempt := func(ctx context.Context, idx int) (string, int64, error) {
		if calls.Add(1) == 1 {
			<-ctx.Done() // wedged until the attempt deadline
			return "", 0, ctx.Err()
		}
		return "ok", 1, nil
	}
	start := time.Now()
	body, _, err := g.fetch(context.Background(), 0, attempt)
	if err != nil || body != "ok" {
		t.Fatalf("body=%q err=%v", body, err)
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("stalled attempt held the fetch %v", el)
	}
	if m.Failovers.Load() != 1 {
		t.Fatalf("Failovers = %d, want 1", m.Failovers.Load())
	}
}

func TestFetchRetryBudgetBoundsFailover(t *testing.T) {
	var m obs.FleetMetrics
	g := hedgeGray(&m, 3, func(c *GrayConfig) {
		c.DisableHedge = true
		c.RetryRatio = 0.001
		c.RetryBurst = 1
	})
	var calls atomic.Int32
	attempt := func(ctx context.Context, idx int) (string, int64, error) {
		calls.Add(1)
		return "", 0, ErrReplicaDown
	}
	_, _, err := g.fetch(context.Background(), 0, attempt)
	var down ErrShardDown
	if !errors.As(err, &down) {
		t.Fatalf("err = %v, want ErrShardDown", err)
	}
	// Primary + the single budgeted failover; the third replica was
	// never burned.
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2 (budget of 1 failover)", calls.Load())
	}
	if m.RetryBudgetExhausted.Load() == 0 {
		t.Fatal("RetryBudgetExhausted not counted")
	}
}

func TestFetchFailStaticWhenAllBreakersOpen(t *testing.T) {
	var m obs.FleetMetrics
	g := hedgeGray(&m, 2, func(c *GrayConfig) {
		c.DisableHedge = true
		c.Breaker = BreakerConfig{Failures: 1, OpenFor: time.Hour}
	})
	// Trip every breaker.
	for i := 0; i < 2; i++ {
		rel, _ := g.Health(0, i).acquire(true)
		rel(outcomeFail, 0)
		if g.Health(0, i).State() != HealthEjected {
			t.Fatalf("replica %d not ejected", i)
		}
	}
	// The replicas actually recovered; only the breakers don't know
	// yet. Fail-static routing must try anyway and heal on success.
	attempt := func(ctx context.Context, idx int) (string, int64, error) {
		return "revived", 9, nil
	}
	body, _, err := g.fetch(context.Background(), 0, attempt)
	if err != nil || body != "revived" {
		t.Fatalf("fail-static pass: body=%q err=%v", body, err)
	}
	healed := false
	for i := 0; i < 2; i++ {
		if g.Health(0, i).Breaker().State() != BreakerOpen {
			healed = true
		}
	}
	if !healed {
		t.Fatal("a forced success should move some breaker off open")
	}
}

func TestFetchParentDeadlineSurfaces(t *testing.T) {
	g := hedgeGray(nil, 2, func(c *GrayConfig) { c.DisableHedge = true })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	attempt := func(ctx context.Context, idx int) (string, int64, error) {
		<-ctx.Done()
		return "", 0, ctx.Err()
	}
	_, _, err := g.fetch(ctx, 0, attempt)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the parent deadline", err)
	}
}

func TestFetchHedgeLoserFeedsSlownessEwma(t *testing.T) {
	var m obs.FleetMetrics
	g := hedgeGray(&m, 2, nil)
	var calls atomic.Int32
	slowIdx := int32(-1)
	attempt := func(ctx context.Context, idx int) (string, int64, error) {
		if calls.Add(1) == 1 {
			atomic.StoreInt32(&slowIdx, int32(idx))
			select {
			case <-time.After(150 * time.Millisecond):
				return "slow", 1, nil
			case <-ctx.Done():
				return "", 0, ctx.Err()
			}
		}
		return "fast", 1, nil
	}
	if _, _, err := g.fetch(context.Background(), 0, attempt); err != nil {
		t.Fatalf("fetch: %v", err)
	}
	// The losing attempt's elapsed time lands in its EWMA: losing to a
	// hedge is slowness evidence even though no error occurred.
	idx := int(atomic.LoadInt32(&slowIdx))
	if idx < 0 {
		t.Fatal("slow attempt never launched")
	}
	// The loser finishes (and records) after the winner has already
	// returned, so poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for g.Health(0, idx).ewmaNanos() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if e := g.Health(0, idx).ewmaNanos(); e == 0 {
		t.Fatal("hedge loser's latency should feed its EWMA")
	}
}
