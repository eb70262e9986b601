package dynamic

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"testing"
	"time"

	"strudel/internal/graph"
	"strudel/internal/mediator"
	"strudel/internal/obs"
	"strudel/internal/schema"
	"strudel/internal/struql"
)

var errInjected = errors.New("injected fault")

func quietLogger() *log.Logger { return log.New(io.Discard, "", 0) }

func touchFile(t *testing.T, path string, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// pubsGraph builds a Publications graph whose every entry carries the
// version marker, so served pages betray which data generation they came
// from — and whether two generations were ever mixed.
func pubsGraph(version int, n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		oid := graph.OID(fmt.Sprintf("pub%d", i))
		g.AddToCollection("Publications", oid)
		g.AddEdge(oid, "title", graph.NewString(fmt.Sprintf("Paper %d", i)))
		g.AddEdge(oid, "year", graph.NewInt(int64(1990+version)))
	}
	return g
}

// newTestReloader wires a reloader over one flaky in-memory source backed
// by a real stamp file.
func newTestReloader(t *testing.T, load func() (*graph.Graph, error)) (*Reloader, *FlakyLoader, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "source.dat")
	touchFile(t, path, "gen0")
	fl := NewFlakyLoader(load)
	rl, err := NewReloader(mediator.Source{Name: "pubs", Paths: []string{path}, Load: fl.Load})
	if err != nil {
		t.Fatal(err)
	}
	rl.Logger = quietLogger()
	rl.Jitter = 0
	rl.BackoffMin = 100 * time.Millisecond
	rl.BackoffMax = 400 * time.Millisecond
	return rl, fl, path
}

func TestReloaderNoChangeNoReload(t *testing.T) {
	rl, fl, _ := newTestReloader(t, func() (*graph.Graph, error) { return pubsGraph(0, 2), nil })
	if _, err := rl.Warehouse(); err != nil {
		t.Fatal(err)
	}
	rl.Tick(time.Now())
	rl.Tick(time.Now())
	if total, _ := fl.Calls(); total != 1 {
		t.Errorf("loader called %d times; unchanged files must not reload", total)
	}
}

// TestReloaderWarehouseStampsBeforeLoad covers an edit that lands while
// the initial load runs: the file is stamped before it is read, so the
// next poll sees the edit instead of recording it as already loaded.
func TestReloaderWarehouseStampsBeforeLoad(t *testing.T) {
	var path string
	loads := 0
	rl, fl, p := newTestReloader(t, func() (*graph.Graph, error) {
		loads++
		if loads == 1 {
			touchFile(t, path, "gen1, written mid-load")
		}
		return pubsGraph(loads, 2), nil
	})
	path = p
	if _, err := rl.Warehouse(); err != nil {
		t.Fatal(err)
	}
	rl.Tick(time.Now())
	if total, _ := fl.Calls(); total != 2 {
		t.Fatalf("loader called %d times, want 2: an edit during the initial load was stamped as seen", total)
	}
}

func TestReloaderBackoffGrowsAndRecovers(t *testing.T) {
	version := 0
	rl, fl, path := newTestReloader(t, func() (*graph.Graph, error) { return pubsGraph(version, 2), nil })
	if _, err := rl.Warehouse(); err != nil {
		t.Fatal(err)
	}
	h := NewHealth()
	rl.AttachSwapper(nil, h)
	var applied *mediator.Delta
	rl.OnApply = func(d *mediator.Delta, kept, dropped int) { applied = d }

	version = 1
	touchFile(t, path, "gen1")
	fl.FailNext(100, errInjected)

	t0 := time.Now()
	rl.Tick(t0)
	if !h.Degraded() {
		t.Fatal("failed reload must degrade health")
	}
	if got := rl.RetryDelay(); got != 100*time.Millisecond {
		t.Errorf("first delay = %v, want BackoffMin", got)
	}

	// A tick inside the backoff window must not attempt the reload.
	before, _ := fl.Calls()
	rl.Tick(t0.Add(50 * time.Millisecond))
	if after, _ := fl.Calls(); after != before {
		t.Error("tick during backoff attempted a reload")
	}

	// Consecutive failures double the delay, clamped at BackoffMax.
	rl.Tick(t0.Add(150 * time.Millisecond))
	if got := rl.RetryDelay(); got != 200*time.Millisecond {
		t.Errorf("second delay = %v, want 200ms", got)
	}
	rl.Tick(t0.Add(400 * time.Millisecond))
	if got := rl.RetryDelay(); got != 400*time.Millisecond {
		t.Errorf("third delay = %v, want 400ms", got)
	}
	rl.Tick(t0.Add(900 * time.Millisecond))
	if got := rl.RetryDelay(); got != 400*time.Millisecond {
		t.Errorf("clamped delay = %v, want BackoffMax", got)
	}

	// Source recovers: the pending change applies, health clears, backoff
	// resets.
	fl.FailNext(0, nil)
	rl.Tick(t0.Add(1500 * time.Millisecond))
	if h.Degraded() {
		t.Error("health still degraded after successful reload")
	}
	if rl.RetryDelay() != 0 {
		t.Errorf("delay after recovery = %v, want 0", rl.RetryDelay())
	}
	if applied == nil || applied.Empty() {
		t.Errorf("applied delta = %+v, want the gen0→gen1 changes", applied)
	}
}

func TestReloaderJitterSpreadsRetries(t *testing.T) {
	rl, fl, path := newTestReloader(t, func() (*graph.Graph, error) { return pubsGraph(0, 1), nil })
	rl.Jitter = 0.2
	if _, err := rl.Warehouse(); err != nil {
		t.Fatal(err)
	}
	touchFile(t, path, "gen1")
	fl.FailNext(100, errInjected)
	rl.Tick(time.Now())
	d := rl.RetryDelay()
	if d != 100*time.Millisecond {
		t.Errorf("RetryDelay reports the base delay, got %v", d)
	}
}

func TestReloaderPartialFailureAccumulatesDeltas(t *testing.T) {
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.dat")
	pathB := filepath.Join(dir, "b.dat")
	touchFile(t, pathA, "gen0")
	touchFile(t, pathB, "gen0")
	verA, verB := 0, 0
	loadA := func() (*graph.Graph, error) {
		g := graph.New()
		g.AddEdge("a", "va", graph.NewInt(int64(verA)))
		return g, nil
	}
	flB := NewFlakyLoader(func() (*graph.Graph, error) {
		g := graph.New()
		g.AddEdge("b", "vb", graph.NewInt(int64(verB)))
		return g, nil
	})
	rl, err := NewReloader(
		mediator.Source{Name: "a", Paths: []string{pathA}, Load: loadA},
		mediator.Source{Name: "b", Paths: []string{pathB}, Load: flB.Load},
	)
	if err != nil {
		t.Fatal(err)
	}
	rl.Logger = quietLogger()
	rl.Jitter = 0
	rl.BackoffMin = 10 * time.Millisecond
	if _, err := rl.Warehouse(); err != nil {
		t.Fatal(err)
	}
	var applied *mediator.Delta
	rl.OnApply = func(d *mediator.Delta, kept, dropped int) { applied = d }

	// Both sources change; b's wrapper fails. a's refresh succeeded and
	// must not be lost when the swap finally happens.
	verA, verB = 1, 1
	touchFile(t, pathA, "gen1")
	touchFile(t, pathB, "gen1")
	flB.FailNext(1, errInjected)
	t0 := time.Now()
	rl.Tick(t0)
	if applied != nil {
		t.Fatal("partial failure must not publish a swap")
	}
	rl.Tick(t0.Add(time.Second))
	if applied == nil {
		t.Fatal("recovered reload did not apply")
	}
	var labels []string
	for _, e := range append(applied.AddedEdges, applied.RemovedEdges...) {
		labels = append(labels, e.Label)
	}
	seen := map[string]bool{}
	for _, l := range labels {
		seen[l] = true
	}
	if !seen["va"] || !seen["vb"] {
		t.Errorf("swap delta covers labels %v, want both va (from the earlier partial success) and vb", labels)
	}
}

func TestReloaderSwapInvalidatesAffectedPages(t *testing.T) {
	version := 0
	rl, _, path := newTestReloader(t, func() (*graph.Graph, error) { return pubsGraph(version, 3), nil })
	data, err := rl.Warehouse()
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(schema.Build(struql.MustParse(siteQuery)), data)
	h := NewHealth()
	rl.AttachSwapper(ev, h)

	if _, err := ev.Page(PageRef{Fn: "RootPage"}); err != nil {
		t.Fatal(err)
	}
	yp := PageRef{Fn: "YearPage", Args: []graph.Value{graph.NewInt(1990)}}
	if _, err := ev.Page(yp); err != nil {
		t.Fatal(err)
	}
	if ev.CacheSize() != 2 {
		t.Fatalf("cache = %d", ev.CacheSize())
	}

	version = 1
	touchFile(t, path, "gen1")
	rl.Tick(time.Now())

	// The year attribute changed, so cached pages depending on it drop and
	// the next request sees the new generation.
	pd, err := ev.Page(PageRef{Fn: "YearPage", Args: []graph.Value{graph.NewInt(1991)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pd.Out()) == 0 {
		t.Error("new-generation year page is empty")
	}
}

func TestSwapDataKeepsUnaffectedPages(t *testing.T) {
	ev, _ := newEvaluator(t, testData())
	m := &obs.ServeMetrics{}
	ev.Obs = m
	if _, err := ev.Page(PageRef{Fn: "RootPage"}); err != nil {
		t.Fatal(err)
	}
	// A delta touching nothing the site reads: the cache carries over.
	d := &mediator.Delta{AddedEdges: []graph.Edge{{From: "x", Label: "unrelated", To: graph.NewInt(1)}}}
	kept, dropped := ev.SwapData(struql.NewGraphSource(testData()), d)
	if kept != 1 || dropped != 0 {
		t.Errorf("kept %d dropped %d, want 1/0", kept, dropped)
	}
	computed := m.PagesComputed.Load()
	if _, err := ev.Page(PageRef{Fn: "RootPage"}); err != nil {
		t.Fatal(err)
	}
	if got := m.PagesComputed.Load(); got != computed {
		t.Errorf("carried-over page was recomputed")
	}

	// A delta touching Publications drops the page.
	d = &mediator.Delta{AddedMembers: []mediator.Membership{{Coll: "Publications", OID: "pubN"}}}
	kept, dropped = ev.SwapData(struql.NewGraphSource(testData()), d)
	if kept != 0 || dropped != 1 {
		t.Errorf("kept %d dropped %d, want 0/1", kept, dropped)
	}

	// A nil delta means "unknown change": everything drops.
	if _, err := ev.Page(PageRef{Fn: "RootPage"}); err != nil {
		t.Fatal(err)
	}
	kept, dropped = ev.SwapData(struql.NewGraphSource(testData()), nil)
	if kept != 0 || dropped != 1 {
		t.Errorf("nil delta: kept %d dropped %d, want 0/1", kept, dropped)
	}
}

// TestFailedRoundCountedOncePerDegradedWindow pins the reload failure
// accounting: a degraded window — consecutive failed attempts ending in
// a successful swap — counts as ONE failed round, no matter how many
// backoff retries it spans, while every attempt still counts as a
// failure. The drill runs two windows of different lengths (3 retries,
// then 1) with a successful swap between them, so a regression toward
// per-attempt round counting (rounds == 4) or toward never reopening a
// round after recovery (rounds == 1) both fail.
func TestFailedRoundCountedOncePerDegradedWindow(t *testing.T) {
	version := 0
	rl, fl, path := newTestReloader(t, func() (*graph.Graph, error) { return pubsGraph(version, 2), nil })
	if _, err := rl.Warehouse(); err != nil {
		t.Fatal(err)
	}
	h := NewHealth()
	rl.AttachSwapper(nil, h)
	metrics := &obs.ServeMetrics{}
	rl.Obs = metrics

	// Window 1: three failed attempts, then recovery.
	version = 1
	touchFile(t, path, "gen1")
	fl.FailNext(3, errInjected)
	now := time.Now()
	for i := 0; i < 3; i++ {
		rl.Tick(now)
		now = now.Add(rl.RetryDelay() + time.Millisecond)
	}
	if !h.Degraded() {
		t.Fatal("window 1: not degraded after three failures")
	}
	if got := metrics.ReloadRoundsFailed.Load(); got != 1 {
		t.Fatalf("window 1: rounds failed = %d, want 1 (attempts: %d)", got, metrics.ReloadFailures.Load())
	}
	rl.Tick(now) // recovery swap
	if h.Degraded() {
		t.Fatal("window 1: still degraded after successful reload")
	}

	// Window 2: one failed attempt, then recovery — a NEW round.
	version = 2
	touchFile(t, path, "gen2")
	fl.FailNext(1, errInjected)
	rl.Tick(now)
	if got := metrics.ReloadRoundsFailed.Load(); got != 2 {
		t.Fatalf("window 2: rounds failed = %d, want 2", got)
	}
	now = now.Add(rl.RetryDelay() + time.Millisecond)
	rl.Tick(now)

	if got := metrics.ReloadFailures.Load(); got != 4 {
		t.Errorf("failed attempts = %d, want 4 (3 + 1)", got)
	}
	if got := metrics.ReloadRoundsFailed.Load(); got != 2 {
		t.Errorf("failed rounds = %d, want 2", got)
	}
	if got := metrics.ReloadApplied.Load(); got != 2 {
		t.Errorf("applied reloads = %d, want 2", got)
	}
	s := h.Snapshot(0)
	if s.FailedRounds != 2 {
		t.Errorf("healthz failedRounds = %d, want 2", s.FailedRounds)
	}
	if s.Failures != 4 {
		t.Errorf("healthz failures = %d, want 4", s.Failures)
	}
}

func TestHealthSnapshotCounters(t *testing.T) {
	h := NewHealth()
	if h.Degraded() {
		t.Fatal("fresh health must be ok")
	}
	h.SetDegraded(errInjected)
	h.SetDegraded(errInjected)
	h.SetHealthy()
	h.SetHealthy()
	s := h.Snapshot(7)
	if s.Status != "ok" || s.Failures != 2 || s.Reloads != 2 || s.ConsecutiveFailures != 0 || s.CachedPages != 7 {
		t.Errorf("snapshot = %+v", s)
	}
	h.SetDegraded(errInjected)
	s = h.Snapshot(0)
	if s.Status != "degraded" || s.Reason == "" || s.ConsecutiveFailures != 1 {
		t.Errorf("degraded snapshot = %+v", s)
	}
}
