package fleet

import (
	"context"
	"testing"
	"time"

	"strudel/internal/obs"
)

func testGrayState(clk *fakeClock, m *obs.FleetMetrics, shards, replicas int) *grayState {
	return newGrayState(GrayConfig{
		Breaker: BreakerConfig{
			Failures:       3,
			Window:         8,
			Rate:           0.5,
			MinSamples:     4,
			OpenFor:        time.Second,
			HalfOpenProbes: 1,
			CloseAfter:     2,
		},
		SuspectAfter: 2,
		SlowFactor:   4,
		SlowMin:      5 * time.Millisecond,
		Clock:        clk.Now,
	}, shards, replicas, m)
}

// record feeds one attempt outcome through the acquire/release path.
func record(t *testing.T, h *ReplicaHealth, outcome attemptOutcome, elapsed time.Duration) {
	t.Helper()
	rel, ok := h.acquire(true)
	if !ok {
		t.Fatal("forced acquire must always admit")
	}
	rel(outcome, elapsed)
}

func TestHealthStateLifecycle(t *testing.T) {
	clk := newFakeClock()
	g := testGrayState(clk, nil, 1, 2)
	h := g.Health(0, 0)
	if h.State() != HealthHealthy {
		t.Fatal("fresh replica should be healthy")
	}

	// Two consecutive failures: suspect (below the trip threshold).
	record(t, h, outcomeFail, 0)
	record(t, h, outcomeFail, 0)
	if h.State() != HealthSuspect {
		t.Fatalf("after SuspectAfter failures: %v, want suspect", h.State())
	}

	// A third trips the breaker: ejected.
	record(t, h, outcomeFail, 0)
	if h.State() != HealthEjected {
		t.Fatalf("after breaker trip: %v, want ejected", h.State())
	}

	// Cool-down elapses: probing.
	clk.Advance(time.Second)
	if h.State() != HealthProbing {
		t.Fatalf("after cool-down: %v, want probing", h.State())
	}

	// Two successful probes close the breaker: healthy again.
	record(t, h, outcomeProbeOK, time.Millisecond)
	record(t, h, outcomeProbeOK, time.Millisecond)
	if h.State() != HealthHealthy {
		t.Fatalf("after recovery: %v, want healthy", h.State())
	}
}

func TestSlowReplicaDemotedToSuspect(t *testing.T) {
	clk := newFakeClock()
	var m obs.FleetMetrics
	g := testGrayState(clk, &m, 1, 2)
	fast, slow := g.Health(0, 0), g.Health(0, 1)
	for i := 0; i < 10; i++ {
		record(t, fast, outcomeOK, 2*time.Millisecond)
		record(t, slow, outcomeOK, 100*time.Millisecond)
	}
	if fast.State() != HealthHealthy {
		t.Fatalf("fast replica: %v, want healthy", fast.State())
	}
	if slow.State() != HealthSuspect {
		t.Fatalf("slow replica: %v, want suspect (ewma %v vs min %v)",
			slow.State(), slow.ewmaNanos(), g.minEwma())
	}
	if m.SlowDemotions.Load() != 1 {
		t.Fatalf("SlowDemotions = %d, want 1 (counted on the transition, not per check)", m.SlowDemotions.Load())
	}
	// Uniform slowness is load, not grayness: when the fast sibling
	// degrades to the same latency, the demotion lifts.
	for i := 0; i < 40; i++ {
		record(t, fast, outcomeOK, 100*time.Millisecond)
	}
	if slow.State() != HealthHealthy {
		t.Fatalf("uniformly slow fleet: %v, want healthy", slow.State())
	}
}

func TestRoutingOrderPrefersHealthy(t *testing.T) {
	clk := newFakeClock()
	g := testGrayState(clk, nil, 1, 3)
	// Trip replica 1's breaker.
	for i := 0; i < 3; i++ {
		record(t, g.Health(0, 1), outcomeFail, 0)
	}
	for trial := 0; trial < 6; trial++ {
		order := g.order(0)
		if len(order) != 3 {
			t.Fatalf("order length %d", len(order))
		}
		if order[len(order)-1] != 1 {
			t.Fatalf("ejected replica must sort last regardless of rotation: %v", order)
		}
		if order[0] == 1 {
			t.Fatalf("ejected replica routed first: %v", order)
		}
	}
	// Rotation still alternates the healthy pair.
	first := map[int]bool{}
	for trial := 0; trial < 6; trial++ {
		first[g.order(0)[0]] = true
	}
	if !first[0] || !first[2] {
		t.Fatalf("rotation should spread primaries over healthy replicas, got %v", first)
	}
}

func TestRecoveryHintTracksBreakerCooldown(t *testing.T) {
	clk := newFakeClock()
	g := newGrayState(GrayConfig{
		Breaker: BreakerConfig{Failures: 1, OpenFor: 10 * time.Second},
		Clock:   clk.Now,
	}, 1, 2, nil)
	if got := g.recoveryHint(0); got != time.Second {
		t.Fatalf("no open breakers: hint %v, want the 1s floor", got)
	}
	record(t, g.Health(0, 0), outcomeFail, 0)
	record(t, g.Health(0, 1), outcomeFail, 0)
	if got := g.recoveryHint(0); got != 10*time.Second {
		t.Fatalf("hint %v, want the soonest cool-down 10s", got)
	}
	clk.Advance(7 * time.Second)
	if got := g.recoveryHint(0); got != 3*time.Second {
		t.Fatalf("hint %v, want remaining 3s", got)
	}
	clk.Advance(5 * time.Second)
	if got := g.recoveryHint(0); got != time.Second {
		t.Fatalf("cool-down over: hint %v, want the 1s floor", got)
	}
}

func TestHedgeDelayFromQuantile(t *testing.T) {
	clk := newFakeClock()
	g := newGrayState(GrayConfig{
		HedgeMinDelay: 2 * time.Millisecond,
		HedgeMaxDelay: 500 * time.Millisecond,
		Clock:         clk.Now,
	}, 1, 2, nil)
	if got := g.hedgeDelay(); got != 2*time.Millisecond {
		t.Fatalf("cold state: hedge delay %v, want the floor", got)
	}
	for i := 0; i < 100; i++ {
		g.observeFetchLatency(100 * time.Millisecond)
	}
	got := g.hedgeDelay()
	if got < 100*time.Millisecond || got > 500*time.Millisecond {
		t.Fatalf("hedge delay %v, want within [p95 bucket, max clamp]", got)
	}
}

func TestProbesHealEjectedReplica(t *testing.T) {
	var m obs.FleetMetrics
	g := newGrayState(GrayConfig{
		Breaker:       BreakerConfig{Failures: 1, OpenFor: time.Millisecond, CloseAfter: 1},
		ProbeInterval: 5 * time.Millisecond,
	}, 1, 1, &m)
	h := g.Health(0, 0)
	record(t, h, outcomeFail, 0)
	if h.State() != HealthEjected {
		t.Fatal("not ejected after trip")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g.startProbes(ctx, func(ctx context.Context, shard, idx int) error { return nil })
	deadline := time.Now().Add(2 * time.Second)
	for h.State() != HealthHealthy && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if h.State() != HealthHealthy {
		t.Fatalf("probes should heal with zero user traffic, state=%v", h.State())
	}
	if m.Probes.Load() == 0 {
		t.Fatal("Probes counter not incremented")
	}
	if m.BreakerCloses.Load() == 0 {
		t.Fatal("BreakerCloses not counted on probe-driven recovery")
	}
}

func TestHealthSnapshotShape(t *testing.T) {
	clk := newFakeClock()
	g := testGrayState(clk, nil, 2, 2)
	record(t, g.Health(0, 1), outcomeFail, 0)
	record(t, g.Health(0, 1), outcomeFail, 0)
	snap := g.Snapshot()
	if snap["shard0_replica0"] != "healthy" {
		t.Fatalf("shard0_replica0 = %v", snap["shard0_replica0"])
	}
	if snap["shard0_replica1"] != "suspect" {
		t.Fatalf("shard0_replica1 = %v", snap["shard0_replica1"])
	}
	if snap["shard1_replica0"] != "healthy" {
		t.Fatalf("shard1_replica0 = %v", snap["shard1_replica0"])
	}
	for _, k := range []string{"hedge_delay_nanos", "hedge_tokens", "retry_tokens"} {
		if _, ok := snap[k]; !ok {
			t.Fatalf("snapshot missing %q", k)
		}
	}
}
