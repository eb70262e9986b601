package dynamic

import (
	"math/rand"
	"testing"
	"time"

	"strudel/internal/graph"
)

// Regression tests pinning the reloader's backoff/jitter contract: the
// nominal delay doubles from backoffMin and clamps at backoffMax, and
// the *scheduled* retry instant stays within ±jitter of the nominal
// delay — never sooner than (1-jitter)·delay (which would hammer a
// down source) and never later than (1+jitter)·delay (which would
// stretch degraded windows unboundedly).

// nextGate reads the absolute retry gate the last failure scheduled.
func nextGate(rl *Reloader) time.Time {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.backoff
}

func TestReloaderJitterWithinBounds(t *testing.T) {
	const jitter = 0.25
	version := 0
	rl, fl, path := newTestReloader(t, func() (*graph.Graph, error) { return pubsGraph(version, 1), nil })
	if _, err := rl.Warehouse(); err != nil {
		t.Fatal(err)
	}
	rl.AttachSwapper(nil, NewHealth())
	rl.jitter = jitter
	rl.rng = rand.New(rand.NewSource(42)) // deterministic jitter samples

	version = 1
	touchFile(t, path, "gen1")
	fl.FailNext(1000, errInjected)

	now := time.Now()
	rl.Tick(now)
	nominal := rl.backoffMin
	for i := 0; i < 40; i++ {
		if got := rl.RetryDelay(); got != nominal {
			t.Fatalf("attempt %d: nominal delay = %v, want %v", i, got, nominal)
		}
		gap := nextGate(rl).Sub(now)
		lo := time.Duration(float64(nominal) * (1 - jitter))
		hi := time.Duration(float64(nominal) * (1 + jitter))
		if gap < lo || gap > hi {
			t.Fatalf("attempt %d: scheduled retry %v outside jitter bounds [%v, %v] of nominal %v",
				i, gap, lo, hi, nominal)
		}
		// Step just past the gate and fail again.
		now = nextGate(rl).Add(time.Millisecond)
		rl.Tick(now)
		if nominal *= 2; nominal > rl.backoffMax {
			nominal = rl.backoffMax
		}
	}
}

func TestReloaderZeroJitterSchedulesExactly(t *testing.T) {
	version := 0
	rl, fl, path := newTestReloader(t, func() (*graph.Graph, error) { return pubsGraph(version, 1), nil })
	if _, err := rl.Warehouse(); err != nil {
		t.Fatal(err)
	}
	rl.AttachSwapper(nil, NewHealth())
	// newTestReloader sets jitter = 0: the schedule must be exact.
	version = 1
	touchFile(t, path, "gen1")
	fl.FailNext(10, errInjected)

	now := time.Now()
	rl.Tick(now)
	for _, want := range []time.Duration{
		100 * time.Millisecond, // backoffMin
		200 * time.Millisecond, // doubled
		400 * time.Millisecond, // doubled to the cap
		400 * time.Millisecond, // clamped at backoffMax
	} {
		if gap := nextGate(rl).Sub(now); gap != want {
			t.Fatalf("zero-jitter gate = %v after now, want exactly %v", gap, want)
		}
		now = nextGate(rl).Add(time.Millisecond)
		rl.Tick(now)
	}
}
