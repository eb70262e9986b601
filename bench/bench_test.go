package main

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"strudel/bench/gen"
)

func TestQuantileIndexIsExact(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{
		{1, 0.5, 0}, {2, 0.5, 0}, {3, 0.5, 1}, {100, 0.5, 49}, {101, 0.5, 50},
		{100, 0.9, 89}, {100, 0.99, 98}, {1000, 0.99, 989}, {10, 1, 9}, {10, 0, 0},
	} {
		if got := quantileIndex(c.n, c.q); got != c.want {
			t.Errorf("quantileIndex(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

// The reported tail is the asked-for quantile only when ten samples lie
// beyond it; with fewer samples it moves down, but never below the
// median.
func TestTailLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{
		{1000, 0.99, 989}, // exactly ten beyond: p99 stands
		{999, 0.99, 988},  // p99 would leave nine
		{100, 0.9, 89},    // exactly ten beyond
		{99, 0.9, 88},
		{400, 0.99, 389},
		{30, 0.9, 19},
		{15, 0.9, 7}, // 15 - 11 = 4 is below the median's index
		{5, 0.99, 2},
	} {
		got := tailIndex(c.n, c.q)
		if got != c.want {
			t.Errorf("tailIndex(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
		if beyond := c.n - 1 - got; beyond < 10 && got > quantileIndex(c.n, 0.5) {
			t.Errorf("tailIndex(%d, %v) leaves %d beyond", c.n, c.q, beyond)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // unsorted input
	}
	if v, q := tail(xs, 0.99); v != 190 || math.Abs(q-0.95) > 1e-9 {
		t.Errorf("tail of 1..200 at p99 = %v at q=%v, want 190 at 0.95", v, q)
	}
	if m := median(xs); m != 100 {
		t.Errorf("median of 1..200 = %v, want 100", m)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

// An open loop must charge a stall to every request that came due
// during it, from its due time, and must own up to how late it sent.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	const (
		rate       = 200.0
		total      = 200
		stallAfter = 300 * time.Millisecond
		stall      = 200 * time.Millisecond
	)
	var first atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := time.Now()
		first.CompareAndSwap(0, now.UnixNano())
		since := now.Sub(time.Unix(0, first.Load()))
		if since >= stallAfter && since < stallAfter+stall {
			time.Sleep(stallAfter + stall - since) // everything in the window waits for its end
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	l := newLoader(srv.URL, func(_ *request, status int, _ http.Header, _ []byte) bool { return status == http.StatusOK })
	defer l.close()
	reqs := make([]request, total)
	for i := range reqs {
		reqs[i] = request{path: "/"}
	}
	samples := l.open(reqs, rate, 2*time.Second)

	gap := time.Second / rate
	var charged, stalled int
	var maxLate time.Duration
	for i, s := range samples {
		if s.failed {
			t.Fatalf("request %d failed", i)
		}
		due := time.Duration(i) * gap
		if s.late > maxLate {
			maxLate = s.late
		}
		// Requests due well inside the stall finish when it ends, however
		// late they were sent: their latency is what was left of the stall
		// at their due time.
		if due > stallAfter+20*time.Millisecond && due < stallAfter+stall-40*time.Millisecond {
			stalled++
			left := stallAfter + stall - due
			if s.latency > left-30*time.Millisecond && s.latency < left+60*time.Millisecond {
				charged++
			}
		}
	}
	if stalled < 20 || charged < stalled*9/10 {
		t.Errorf("%d of %d requests due during the stall were charged the rest of it from their due time", charged, stalled)
	}
	// 40 requests come due during the stall and only openConns can be in
	// flight, so the rest are sent late, and the generator must say so.
	st := summarise(samples, rate)
	late, _ := tail(st.lateMS, 0.99)
	if late < 40 || ms(maxLate) > 1000*stall.Seconds()+50 {
		t.Errorf("late p99 = %.1f ms (max %.1f): the stall's backlog of sends is not reported", late, ms(maxLate))
	}
	p50 := median(st.allMS)
	if p50 > 20 {
		t.Errorf("median latency %.1f ms: requests outside the stall should be fast", p50)
	}
}

// BENCHMARK.json, the driver's tables and the query file must agree.
func TestManifestMatchesDriver(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the driver has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the driver", i, bf.Workloads[i].Name, w.name)
		}
	}
	want := map[string]string{}
	for _, m := range endToEnd {
		want[m.name] = m.unit
	}
	for _, m := range bf.EndToEnd {
		if want[m.Name] != m.Unit {
			t.Errorf("end-to-end metric %s [%s] is not what the driver reports (%q)", m.Name, m.Unit, want[m.Name])
		}
		delete(want, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	for name := range want {
		t.Errorf("BENCHMARK.json lacks end-to-end metric %s", name)
	}
	if len(bf.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the driver reports %d", len(bf.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if bf.PerLayer[i].Name != m.name || bf.PerLayer[i].Unit != m.unit {
			t.Errorf("per-layer metric %d is %s [%s] in BENCHMARK.json and %s [%s] in the driver", i, bf.PerLayer[i].Name, bf.PerLayer[i].Unit, m.name, m.unit)
		}
	}

	q, err := os.ReadFile(filepath.Join(root, "bench", "site", "site.struql"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(q), "aggregate") || strings.Contains(string(gen.ServeQuery(q)), "aggregate") {
		t.Error("the click-time query must be the site query minus its aggregate block")
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(vals ...float64) []runRecord {
		var out []runRecord
		for _, v := range vals {
			out = append(out, runRecord{Outcome: &outcome{Metrics: map[string]metric{"m": {v, "ms"}}}})
		}
		return out
	}
	steady := mk(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	lower := issueMetric{name: "m", better: "lower", bound: 0.10}
	higher := issueMetric{name: "m", better: "higher", bound: 0.10}
	failedShare := issueMetric{name: "m", better: "lower", bound: 0.001, absolute: true}
	for _, c := range []struct {
		name string
		a, b []runRecord
		m    issueMetric
		want string
	}{
		{"same", steady, steady, lower, "within"},
		{"slower", steady, mk(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), lower, "regressed"},
		{"faster", steady, mk(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), lower, "within"},
		{"lower-is-worse", steady, mk(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), higher, "regressed"},
		{"noisy", steady, mk(60, 140, 100, 70, 130, 100, 65, 135, 100, 100), lower, "unresolved"},
		{"one side lacks it", steady, nil, lower, "missing"},
		{"no base for a share", mk(0, 0, 0, 0), mk(0, 0, 0, 0), lower, "unresolved"},
		{"too few runs to know the spread", mk(4000), mk(2000), higher, "unresolved"},
		{"absolute: none failed", mk(0, 0, 0, 0), mk(0, 0, 0, 0), failedShare, "within"},
		{"absolute: some failed", mk(0, 0, 0, 0), mk(0.002, 0.002, 0.002, 0.002), failedShare, "regressed"},
	} {
		if got := verdict(values(c.a, "m"), values(c.b, "m"), c.m).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// The issue's names are found beside the contract's.
	named := []runRecord{{Outcome: &outcome{}, Named: map[string]metric{"reload_s": {0.2, "s"}}}}
	if got := values(named, "reload_s"); len(got) != 1 || got[0] != 0.2 {
		t.Errorf("values of a named metric = %v", got)
	}
}

// A per-layer metric that was not measured is absent from the outcome
// and from the result file; only the contract's line, which must carry
// every name, writes it as 0.
func TestAbsentLayerMetrics(t *testing.T) {
	res := &outcome{Correct: true, Attempted: 1, Metrics: map[string]metric{}}
	res.set("probe.ok", 0)
	res.budget([]float64{1, 2, 3}, 0.9, 0, 1, "load", "wrapper.load_ms")
	if has(res.Metrics, "run.budget_ms") || has(res.Metrics, "wrapper.load_ms") {
		t.Errorf("a budget over an unmeasured layer was reported: %v", res.Metrics)
	}
	res.setShare("fleet.edge_hit_share", vars{"a": 1}, vars{"a": 3}, "a", "gone")
	res.setShare("queryapi.cache_hit_share", vars{"a": 1, "b": 1}, vars{"a": 1, "b": 1}, "a", "b")
	if has(res.Metrics, "fleet.edge_hit_share") || has(res.Metrics, "queryapi.cache_hit_share") {
		t.Errorf("a share over a missing or idle counter was reported: %v", res.Metrics)
	}
	res.setShare("dynamic.cache_hit_share", vars{"a": 1, "b": 1}, vars{"a": 4, "b": 2}, "a", "b")
	if got := res.Metrics["dynamic.cache_hit_share"].Value; got != 0.75 {
		t.Errorf("share = %v, want 0.75", got)
	}
	var line outcome
	if err := json.Unmarshal(contractLine(res, true), &line); err != nil {
		t.Fatal(err)
	}
	if len(line.Metrics) != len(layerMetrics) || line.Metrics["wrapper.load_ms"] != (metric{0, "ms"}) || line.Metrics["run.op_p50_ms"].Value != 2 {
		t.Errorf("contract line: %d metrics, wrapper.load_ms = %v", len(line.Metrics), line.Metrics["wrapper.load_ms"])
	}
}

// TestSmoke runs all four workloads and the probe at tiny scales through
// the real binaries and asserts only the oracles.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	// The scratch tmpfs lives in this thread's mount namespace; the
	// thread is not handed back.
	runtime.LockOSThread()
	e, err := newEnv()
	if errors.Is(err, errNoRAM) {
		t.Skip(err)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.buildBinaries(); err != nil {
		t.Fatal(err)
	}
	if code := smokeMain(e); code != 0 {
		t.Fatalf("smoke run failed (see the log above)")
	}
}
