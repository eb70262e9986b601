package dynamic_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"strudel/internal/dynamic"
	"strudel/internal/fleet"
	"strudel/internal/graph"
	"strudel/internal/mediator"
	"strudel/internal/obs"
	"strudel/internal/schema"
	"strudel/internal/struql"
	"strudel/internal/template"
)

// The click-time server is the fleet edge over a fleet of evaluators; a
// single server is the 1×1 fleet. These tests pin the serving contract
// of this package's evaluator through that one path: pages and links
// over HTTP, the deadline → 504, shedding with a /healthz bypass, panic
// recovery and error sanitization of the serving spine, and the hot
// reload drill.

// serve builds a 1×1 fleet over a site query and source, and the edge
// in front of it; perFn names a template per Skolem function.
func serve(t *testing.T, query string, src struql.Source, ts *template.Set, perFn map[string]string) (*fleet.Fleet, *fleet.Edge) {
	t.Helper()
	if ts == nil {
		ts = template.NewSet()
	}
	f, err := fleet.New(fleet.Config{Schema: schema.Build(struql.MustParse(query)), Templates: ts, PerFn: perFn}, src)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	e := fleet.NewEdge(f)
	e.StaleFor = 0
	return f, e
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return readBody(t, resp)
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestServerServesPages(t *testing.T) {
	ts := template.NewSet()
	ts.MustAdd("RootPage", `<h1><SFMT title></h1><SFMT YearPage UL ORDER=ascend KEY=Year>`)
	ts.MustAdd("YearPage", `<h1>Year <SFMT Year></h1><SFMT Paper UL>`)
	ts.MustAdd("PaperPage", `<b><SFMT title></b>`)
	_, e := serve(t, dynamic.SiteQuery, dynamic.FixtureData(), ts,
		map[string]string{"RootPage": "RootPage", "YearPage": "YearPage", "PaperPage": "PaperPage"})
	hs := httptest.NewServer(e.Handler())
	defer hs.Close()

	body := get(t, hs.URL+"/")
	if !strings.Contains(body, "<h1>Home</h1>") {
		t.Errorf("root body:\n%s", body)
	}
	// Follow the first year-page link.
	idx := strings.Index(body, `/page/`)
	if idx < 0 {
		t.Fatalf("no page link in root:\n%s", body)
	}
	end := strings.IndexByte(body[idx:], '"')
	link := body[idx : idx+end]
	yearBody := get(t, hs.URL+link)
	if !strings.Contains(yearBody, "Year 1997") {
		t.Errorf("year body:\n%s", yearBody)
	}
	// Unknown page → 404.
	resp, err := http.Get(hs.URL + "/page/Nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestServerDefaultTemplate(t *testing.T) {
	_, e := serve(t, dynamic.SiteQuery, dynamic.FixtureData(), nil, nil)
	hs := httptest.NewServer(e.Handler())
	defer hs.Close()
	body := get(t, hs.URL+"/")
	if !strings.Contains(body, "<dt>title</dt><dd>Home</dd>") {
		t.Errorf("default rendering:\n%s", body)
	}
}

func TestRequestDeadlineMapsTo504(t *testing.T) {
	fs := dynamic.NewFaultSource(dynamic.SlowData(256), time.Millisecond)
	_, e := serve(t, dynamic.SlowQuery, fs, nil, nil)
	e.RequestTimeout = 20 * time.Millisecond
	e.Logger = log.New(io.Discard, "", 0)
	hs := httptest.NewServer(e.Handler())
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status = %d, want 504 (body %q)", resp.StatusCode, body)
	}
	if !strings.Contains(body, `"code":"deadline"`) || !strings.Contains(body, "request timed out") {
		t.Errorf("body = %q", body)
	}
}

func TestSheddingAndHealthzBypass(t *testing.T) {
	fs := dynamic.NewFaultSource(dynamic.SlowData(64), 2*time.Millisecond)
	_, e := serve(t, dynamic.SlowQuery, fs, nil, nil)
	e.MaxInflight = 1
	var m obs.ServeMetrics
	e.ServeObs = &m
	hs := httptest.NewServer(e.Handler())
	defer hs.Close()

	// Occupy the one slot with a slow request...
	firstDone := make(chan int, 1)
	go func() {
		resp, err := http.Get(hs.URL + "/")
		if err != nil {
			firstDone <- -1
			return
		}
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	for fs.Ops() == 0 {
		time.Sleep(100 * time.Microsecond)
	}

	// ...then excess page load is shed with 503 + Retry-After...
	resp, err := http.Get(hs.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); !strings.Contains(body, `"code":"overloaded"`) {
		t.Errorf("shed body = %q", body)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	// ...but /healthz bypasses shedding so the saturated server can still
	// be probed.
	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK || !strings.Contains(body, `"status"`) {
		t.Errorf("healthz status = %d, body %q", resp.StatusCode, body)
	}

	if code := <-firstDone; code != http.StatusOK {
		t.Errorf("occupying request finished with %d", code)
	}
	if got := m.Shed.Load(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
}

// panicSource panics on first use — a stand-in for any unexpected
// failure in site code, which runs on a replica goroutine beyond the
// reach of the handler's own recovery.
type panicSource struct {
	struql.Source
}

func (panicSource) Collection(string) []graph.OID { panic("secret internal detail") }

func TestPanicRecoverySanitizes500(t *testing.T) {
	_, e := serve(t, dynamic.SiteQuery, panicSource{dynamic.FixtureData()}, nil, nil)
	var logged bytes.Buffer
	e.Logger = log.New(&logged, "", 0)
	var m obs.ServeMetrics
	e.ServeObs = &m
	hs := httptest.NewServer(e.Handler())
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", resp.StatusCode)
	}
	if strings.Contains(body, "secret") {
		t.Errorf("panic detail leaked to client: %q", body)
	}
	if !strings.Contains(body, `"code":"internal"`) || !strings.Contains(body, "internal server error") {
		t.Errorf("body = %q", body)
	}
	if !strings.Contains(logged.String(), "secret internal detail") {
		t.Error("panic detail missing from server-side log")
	}
	if got := m.Panics.Load(); got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}
}

// stressQuery serves a root page whose rendered body lists, through the
// template TEXT= mechanism, the "ver" attribute of every publication
// page. Every publication in one data generation carries the same
// version marker, so a single response mixing two markers is direct
// evidence of a torn graph — a render that crossed data generations.
const stressQuery = `
create Root()
where Pubs(x)
create P(x)
link Root() -> "p" -> P(x)
{
  where x -> "ver" -> v
  link P(x) -> "ver" -> v
}
`

const stressPubs = 12

func stressGraph(version int) *graph.Graph {
	g := graph.New()
	marker := fmt.Sprintf("ver%04d", version)
	for i := 0; i < stressPubs; i++ {
		oid := graph.OID(fmt.Sprintf("p%02d", i))
		g.AddToCollection("Pubs", oid)
		g.AddEdge(oid, "ver", graph.NewString(marker))
	}
	return g
}

var verRE = regexp.MustCompile(`ver\d{4}`)

// TestStressServeUnderFaultyReloads is the end-to-end robustness drill:
// 32 concurrent clients hammer the server while the data source is
// reloaded repeatedly, with injected wrapper faults making some reloads
// fail and then recover mid-run. It proves, under -race:
//
//   - no response ever mixes two data generations (no torn graph),
//   - a degraded server keeps serving complete last-good pages while
//     /healthz reports degraded,
//   - recovery restores fresh pages and a healthy /healthz.
func TestStressServeUnderFaultyReloads(t *testing.T) {
	stampPath := filepath.Join(t.TempDir(), "pubs.dat")
	if err := os.WriteFile(stampPath, []byte("gen0"), 0o644); err != nil {
		t.Fatal(err)
	}
	var verMu sync.Mutex
	version := 0
	fl := dynamic.NewFlakyLoader(func() (*graph.Graph, error) {
		verMu.Lock()
		defer verMu.Unlock()
		return stressGraph(version), nil
	})
	rl, err := dynamic.NewReloader(mediator.Source{Name: "pubs", Paths: []string{stampPath}, Load: fl.Load})
	if err != nil {
		t.Fatal(err)
	}
	rl.Logger = log.New(io.Discard, "", 0)
	dynamic.SetBackoff(rl, time.Millisecond, 4*time.Millisecond, 0)
	metrics := &obs.ServeMetrics{}
	edgeMetrics := &obs.FleetMetrics{}
	rl.Obs = metrics
	data, err := rl.Warehouse()
	if err != nil {
		t.Fatal(err)
	}
	ts := template.NewSet()
	ts.MustAdd("Root", `<SFMT p UL TEXT=ver>`)
	f, err := fleet.New(fleet.Config{
		Schema:    schema.Build(struql.MustParse(stressQuery)),
		Templates: ts,
		PerFn:     map[string]string{"Root": "Root"},
		ServeObs:  metrics,
	}, data)
	if err != nil {
		t.Fatal(err)
	}
	e := fleet.NewEdge(f)
	e.StaleFor = 0
	e.RequestTimeout = 10 * time.Second
	e.Obs = edgeMetrics
	e.ServeObs = metrics
	rl.AttachSwapper(f, e.Health)
	hs := httptest.NewServer(e.Handler())
	defer hs.Close()

	// checkResponse asserts one response is a complete page from exactly
	// one data generation.
	client := &http.Client{Timeout: 15 * time.Second}
	checkResponse := func() string {
		resp, err := client.Get(hs.URL + "/")
		if err != nil {
			t.Errorf("GET /: %v", err)
			return ""
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Errorf("GET /: read body: %v", err)
			return ""
		}
		body := string(raw)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET / = %d: %q", resp.StatusCode, body)
			return ""
		}
		markers := verRE.FindAllString(body, -1)
		if len(markers) != stressPubs {
			t.Errorf("response lists %d publications, want %d (partial page):\n%s", len(markers), stressPubs, body)
			return ""
		}
		for _, m := range markers[1:] {
			if m != markers[0] {
				t.Errorf("torn graph: response mixes %s and %s:\n%s", markers[0], m, body)
				return ""
			}
		}
		return markers[0]
	}
	readHealth := func() string {
		resp, err := client.Get(hs.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		return readBody(t, resp)
	}

	// 32 concurrent clients loop until the drill ends.
	const clients = 32
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				checkResponse()
			}
		}()
	}

	// The driver pushes new data generations through the reloader,
	// injecting wrapper faults on every third round.
	waitForVersion := func(v int) {
		want := fmt.Sprintf("ver%04d", v)
		deadline := time.Now().Add(10 * time.Second)
		for {
			if got := checkResponse(); got == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("version %s never served", want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	errInjected := errors.New("injected fault")
	const rounds = 12
	degradedWindows := 0
	for round := 1; round <= rounds; round++ {
		verMu.Lock()
		version = round
		verMu.Unlock()
		if err := os.WriteFile(stampPath, []byte(strings.Repeat("g", round+1)), 0o644); err != nil {
			t.Fatal(err)
		}
		if round%3 == 0 {
			// This round's reload fails twice before recovering.
			fl.FailNext(2, errInjected)
			rl.Tick(time.Now())
			if !e.Health.Degraded() {
				t.Fatalf("round %d: health not degraded after failed reload", round)
			}
			degradedWindows++
			// Degraded mode: last-good pages still serve, complete and
			// consistent, while /healthz says degraded.
			if got := checkResponse(); got != fmt.Sprintf("ver%04d", round-1) {
				t.Errorf("round %d: degraded server serves %q, want last-good ver%04d", round, got, round-1)
			}
			if body := readHealth(); !strings.Contains(body, `"status":"degraded"`) {
				t.Errorf("round %d: healthz while degraded: %s", round, body)
			}
			// Retry (per backoff) until the source recovers.
			deadline := time.Now().Add(10 * time.Second)
			for e.Health.Degraded() {
				if time.Now().After(deadline) {
					t.Fatalf("round %d: reload never recovered", round)
				}
				time.Sleep(2 * time.Millisecond)
				rl.Tick(time.Now())
			}
		} else {
			rl.Tick(time.Now())
		}
		waitForVersion(round)
	}
	close(stop)
	wg.Wait()

	if degradedWindows == 0 {
		t.Error("drill never exercised a degraded window")
	}
	_, failed := fl.Calls()
	if failed < degradedWindows {
		t.Errorf("injected faults: %d failed loads over %d windows", failed, degradedWindows)
	}
	if body := readHealth(); !strings.Contains(body, `"status":"ok"`) {
		t.Errorf("final healthz: %s", body)
	}

	// Reload accounting regression: failed ROUNDS count degraded windows
	// (one per window, however many backoff retries it took to recover),
	// while failed ATTEMPTS count every injected fault. Before the
	// transition-based fix, rounds equaled attempts.
	if got := metrics.ReloadRoundsFailed.Load(); got != int64(degradedWindows) {
		t.Errorf("reload_rounds_failed = %d, want %d (one per degraded window)", got, degradedWindows)
	}
	if got := metrics.ReloadFailures.Load(); got != int64(failed) {
		t.Errorf("reload_failures = %d, want %d (one per failed attempt)", got, failed)
	}
	if hst := e.Health.Snapshot(0); hst.FailedRounds != degradedWindows {
		t.Errorf("healthz failedRounds = %d, want %d", hst.FailedRounds, degradedWindows)
	} else if hst.Failures != failed {
		t.Errorf("healthz failures = %d, want %d", hst.Failures, failed)
	}
	if got := metrics.ReloadApplied.Load(); got != rounds {
		t.Errorf("reload_applied = %d, want %d", got, rounds)
	}
	// Serving-side metrics were live during the drill.
	if edgeMetrics.EdgeRequests.Load() == 0 || edgeMetrics.EdgeNanos.Count() == 0 {
		t.Error("request metrics not recorded during the drill")
	}
	if metrics.PagesComputed.Load() == 0 {
		t.Error("no page computations recorded")
	}
	if got := metrics.InFlight.Load(); got != 0 {
		t.Errorf("in_flight = %d after drain, want 0", got)
	}
}
