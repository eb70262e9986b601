package fleet

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"
)

// TestLoadgenSmoke runs the open-loop load generator against an
// in-process fleet for a short fixed window and asserts the CI
// contract: pages were discovered, throughput is non-zero, no request
// errored, and — via the verify hook — every measured response was
// byte-identical to the single-evaluator oracle (zero mismatches).
func TestLoadgenSmoke(t *testing.T) {
	s := buildSchema(t)
	g := genSiteData(9)
	f := newTestFleet(t, s, g, 2, 1)
	ts := httptest.NewServer(NewEdge(f).Handler())
	defer ts.Close()

	// The oracle table, keyed by the exact paths the crawler will
	// discover from rendered hrefs.
	ref := newReference(t, s, g)
	want := map[string]string{}
	for _, r := range crawlRefs(t, ref) {
		b, err := ref.RenderPage(r)
		if err != nil {
			t.Fatalf("reference render: %v", err)
		}
		want[PageURL(r)] = b
	}
	root, err := ref.RenderPage(ref.Ev.EntryPoints()[0])
	if err != nil {
		t.Fatalf("reference render root: %v", err)
	}
	want["/"] = root

	lg := &openLoad{
		url:    ts.URL,
		rate:   400,
		window: 600 * time.Millisecond,
		warmup: 150 * time.Millisecond,
		seed:   1,
		verify: func(path, body string) error {
			wantBody, ok := want[path]
			if !ok {
				return fmt.Errorf("crawled unknown path %s", path)
			}
			if body != wantBody {
				return fmt.Errorf("body of %s differs from oracle", path)
			}
			return nil
		},
	}
	rep := lg.run(t)
	if rep.Pages < 5 {
		t.Fatalf("discovered only %d pages", rep.Pages)
	}
	if rep.Requests == 0 || rep.Throughput <= 0 {
		t.Fatalf("no throughput: %+v", rep)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d request errors: %+v", rep.Errors, rep)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d oracle mismatches under load", rep.Mismatches)
	}
	if rep.P50Nanos <= 0 || rep.P99Nanos < rep.P50Nanos {
		t.Fatalf("implausible latency percentiles: p50=%d p99=%d", rep.P50Nanos, rep.P99Nanos)
	}
	t.Logf("loadgen smoke: %d pages, %d requests, %.0f rps, p50=%s p99=%s",
		rep.Pages, rep.Requests, rep.Throughput,
		time.Duration(rep.P50Nanos), time.Duration(rep.P99Nanos))
}
