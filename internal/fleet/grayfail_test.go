package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"strudel/internal/faultnet"
	"strudel/internal/obs"
)

// The gray-failure drill: a serving fleet where one replica is 200ms
// slow and another flaps up-down-up, driven by the open-loop load
// generator with every response byte-checked against the reference
// evaluator. The acceptance bar from the issue:
//
//   - zero body mismatches (the differential-oracle invariant holds
//     under faults);
//   - zero errors other than 503-with-Retry-After;
//   - p99 bounded by a small multiple of the healthy baseline (the
//     slow replica must not own the tail);
//   - the health machinery visibly engaged: hedges won, breakers
//     tripped and closed, the slow replica was demoted.

const drillSeed = 17

// drillGray is the gray config both baseline and drill fleets run.
func drillGray() GrayConfig {
	return GrayConfig{
		Breaker:        BreakerConfig{OpenFor: 200 * time.Millisecond},
		ProbeInterval:  50 * time.Millisecond,
		ProbeTimeout:   time.Second,
		AttemptTimeout: time.Second,
	}
}

// drillFleet builds a fleet served over HTTP, with an optional fault
// proxy per replica, fronted by an edge with a deliberately tiny cache
// (a drill where the cache absorbs every request never exercises the
// backends).
func drillFleet(t *testing.T, m *obs.FleetMetrics, faults map[[2]int]faultnet.Schedule) (*httptest.Server, *Fleet, context.CancelFunc) {
	t.Helper()
	const shards, replicas = 2, 2
	f := grayFleet(t, drillSeed, shards, replicas, m, drillGray())
	urls := make([][]string, shards)
	for sh := 0; sh < shards; sh++ {
		for i := 0; i < replicas; i++ {
			var h http.Handler = ReplicaHandler(f.Replica(sh, i))
			if sched, ok := faults[[2]int{sh, i}]; ok {
				h = &faultnet.Proxy{Inner: h, Sched: sched}
			}
			rts := httptest.NewServer(h)
			t.Cleanup(rts.Close)
			urls[sh] = append(urls[sh], rts.URL)
		}
	}
	if err := f.ServeOverHTTP(urls); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.StartHealthChecks(ctx)
	e := quiet(NewEdge(f))
	e.Obs = m
	e.StaleFor = 0
	e.MaxEntries = 4
	ts := httptest.NewServer(e.Handler())
	t.Cleanup(ts.Close)
	return ts, f, cancel
}

// drillLoad drives the load generator against an edge with full body
// verification against the reference evaluator.
func drillLoad(t *testing.T, ts *httptest.Server) *loadReport {
	t.Helper()
	s := buildSchema(t)
	refSrv := newReference(t, s, genSiteData(drillSeed))
	expected := map[string]string{}
	for _, ref := range crawlRefs(t, refSrv) {
		body, err := refSrv.RenderPage(ref)
		if err != nil {
			t.Fatalf("reference render: %v", err)
		}
		expected[PageURL(ref)] = body
	}
	roots := refSrv.Ev.EntryPoints()
	expected["/"] = expected[PageURL(roots[0])]

	lg := &openLoad{
		url:    ts.URL,
		rate:   150,
		window: 2 * time.Second,
		warmup: 400 * time.Millisecond,
		seed:   drillSeed,
		allow:  []int{http.StatusServiceUnavailable},
		verify: func(path, body string) error {
			want, ok := expected[path]
			if !ok {
				return fmt.Errorf("unexpected path %s", path)
			}
			if body != want {
				return fmt.Errorf("body mismatch on %s", path)
			}
			return nil
		},
	}
	return lg.run(t)
}

func TestGrayFailureDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second load drill")
	}

	// Healthy baseline: same topology, no faults.
	var mBase obs.FleetMetrics
	baseTS, _, stopBase := drillFleet(t, &mBase, nil)
	baseline := drillLoad(t, baseTS)
	stopBase()
	if baseline.Errors != 0 || baseline.Mismatches != 0 {
		t.Fatalf("baseline unhealthy: %+v", baseline)
	}

	// The drill: shard 0 replica 0 is 200ms slow on every request;
	// shard 1 replica 1 flaps — 20 clean responses, then 10 dropped
	// connections, repeating.
	var m obs.FleetMetrics
	grayTS, c, stopGray := drillFleet(t, &m, map[[2]int]faultnet.Schedule{
		{0, 0}: faultnet.Script{{Delay: 200 * time.Millisecond}},
		{1, 1}: faultnet.Flap{Up: 20, Down: 10},
	})
	gray := drillLoad(t, grayTS)
	stopGray()

	// Invariant 1: every 200 body matched the reference evaluator.
	if gray.Mismatches != 0 {
		t.Fatalf("drill served %d corrupted/mismatched bodies: %+v", gray.Mismatches, gray)
	}
	// Invariant 2: no failure mode other than 503 leaked to clients.
	if gray.Errors != 0 {
		t.Fatalf("drill produced %d non-503 errors: %+v", gray.Errors, gray)
	}
	for code := range gray.Status {
		if code != "200" && code != "503" {
			t.Fatalf("unexpected status %s in drill: %+v", code, gray.Status)
		}
	}
	// Invariant 3: the slow replica does not own the tail. The floor
	// absorbs the histogram's power-of-two bucket granularity on a
	// near-zero baseline.
	floor := int64(34 * time.Millisecond)
	bound := 5 * max64(baseline.P99Nanos, floor)
	if gray.P99Nanos > bound {
		t.Fatalf("drill p99 %v exceeds 5x healthy baseline (baseline p99 %v, bound %v)",
			time.Duration(gray.P99Nanos), time.Duration(baseline.P99Nanos), time.Duration(bound))
	}
	// Invariant 4: the machinery engaged and is observable.
	if m.Hedges.Load() == 0 || m.HedgeWins.Load() == 0 {
		t.Fatalf("no hedge wins against a 200ms-slow replica: hedges=%d wins=%d",
			m.Hedges.Load(), m.HedgeWins.Load())
	}
	if m.BreakerTrips.Load() == 0 {
		t.Fatal("the flapping replica never tripped a breaker")
	}
	if m.BreakerCloses.Load() == 0 {
		t.Fatal("no breaker ever closed again (no recovery observed)")
	}
	if m.SlowDemotions.Load() == 0 {
		t.Fatal("the slow replica was never demoted to suspect")
	}
	if m.Probes.Load() == 0 {
		t.Fatal("active health probes never ran")
	}
	snap := c.HealthSnapshot()
	if snap["shard0_replica0"] == "healthy" {
		t.Fatalf("the 200ms replica still reads healthy at drill end: %v", snap["shard0_replica0"])
	}

	writeDrillReport(t, baseline, gray, &m, snap)

	t.Logf("drill: baseline p99=%v gray p99=%v hedges=%d wins=%d trips=%d closes=%d demotions=%d probes=%d",
		time.Duration(baseline.P99Nanos), time.Duration(gray.P99Nanos),
		m.Hedges.Load(), m.HedgeWins.Load(), m.BreakerTrips.Load(),
		m.BreakerCloses.Load(), m.SlowDemotions.Load(), m.Probes.Load())
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// writeDrillReport emits the drill outcome as JSON when
// CHAOS_SERVE_OUT names a file — the make chaos-serve artifact.
func writeDrillReport(t *testing.T, baseline, gray *loadReport, m *obs.FleetMetrics, health map[string]any) {
	t.Helper()
	out := os.Getenv("CHAOS_SERVE_OUT")
	if out == "" {
		return
	}
	doc := map[string]any{
		"baseline": baseline,
		"gray":     gray,
		"metrics":  m.Snapshot(),
		"health":   health,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatalf("marshal drill report: %v", err)
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		t.Fatalf("write drill report: %v", err)
	}
	t.Logf("drill report written to %s", out)
}
