package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"strudel/internal/dynamic"
	"strudel/internal/htmlgen"
	"strudel/internal/obs"
	"strudel/internal/spine"
)

// This file is the over-the-wire replica transport: a replica can be
// exposed as its own HTTP server (ReplicaServer) and a fleet can send
// its attempts there by URL instead of method call (ServeOverHTTP). The
// in-process call is the production default for a single binary; the
// HTTP transport is what a multi-process deployment uses, and the
// differential oracle runs both to prove the network hop changes no
// byte. The HTTP transport carries three extra end-to-end signals the
// in-process call gets for free:
//
//   - the request deadline propagates as a header, so a replica stops
//     rendering work whose requester has already given up;
//   - the body carries a content checksum, so a corrupted wire byte is
//     caught at the edge and failed over instead of served;
//   - a down replica's 503 carries a Retry-After hint that flows
//     through the fleet's shard-down error to the edge's response.

// genHeader carries the data generation a replica rendered against.
const genHeader = "X-Strudel-Generation"

// deadlineHeader carries the requester's remaining time budget in
// milliseconds, so the deadline survives the HTTP hop.
const deadlineHeader = "X-Strudel-Deadline-Ms"

// bodyHashHeader carries the rendered body's content hash for
// end-to-end integrity: the edge recomputes it over the received bytes
// and treats a mismatch as a replica failure.
const bodyHashHeader = "X-Strudel-Body-Hash"

// ReplicaServer exposes one replica as an HTTP shard server:
// GET /page/<key> renders the page and tags the response with the
// replica's data generation and body checksum. It runs behind the same
// spine chain as the edge, so errors take the one taxonomy: dead
// replica 503 + Retry-After, deadline 504, other failures a sanitized
// 500.
type ReplicaServer struct {
	Replica *Replica
	// RetryAfter is the recovery hint advertised on a down replica's
	// 503, in whole seconds rounded up; 0 means 1s.
	RetryAfter time.Duration
}

// Handler returns the replica server's HTTP handler.
func (s *ReplicaServer) Handler() http.Handler {
	c := &spine.Chain{Name: "replica"}
	mux := http.NewServeMux()
	mux.HandleFunc("/page/", func(w http.ResponseWriter, r *http.Request) {
		ref, err := refFromPath(r.URL.Path)
		if err != nil {
			spine.Write(w, &spine.Error{Code: spine.CodeBadRequest, Message: "bad page key"})
			return
		}
		ctx := r.Context()
		if ms, ok := parseDeadlineMs(r.Header.Get(deadlineHeader)); ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, ms)
			defer cancel()
		}
		body, gen, err := s.Replica.Render(ctx, ref)
		switch {
		case errors.Is(err, ErrReplicaDown):
			spine.Write(w, &spine.Error{Code: spine.CodeUnavailable, Message: "replica down",
				RetryAfter: spine.RetryAfterSeconds(s.RetryAfter)})
			return
		case err != nil:
			c.Fail(w, r, err)
			return
		}
		w.Header().Set(genHeader, strconv.FormatInt(gen, 10))
		w.Header().Set(bodyHashHeader, htmlgen.PageHash(body))
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		io.WriteString(w, body)
	})
	mux.HandleFunc("/", spine.NotFound)
	return c.Handler(mux)
}

// ReplicaHandler exposes one replica as an HTTP shard server with
// default settings.
func ReplicaHandler(rep *Replica) http.Handler {
	return (&ReplicaServer{Replica: rep}).Handler()
}

// parseDeadlineMs parses the deadline header into a remaining budget.
func parseDeadlineMs(v string) (time.Duration, bool) {
	d := parseCount(v, time.Millisecond)
	return d, d > 0
}

// parseCount parses a header's decimal count of unit; 0 when absent,
// unparseable or negative. A count too large for a time.Duration
// saturates at the largest one rather than wrapping negative.
func parseCount(v string, unit time.Duration) time.Duration {
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	if n > int64(math.MaxInt64/unit) {
		return math.MaxInt64
	}
	return time.Duration(n) * unit
}

// httpAttemptTimeout bounds each outbound replica request (connect,
// response, and full body read) when the fleet's GrayConfig left
// AttemptTimeout unset. The in-process path can afford "parent deadline
// only"; over a network, an unbounded attempt means a stalled replica
// ties up the whole request until the edge deadline — exactly the gray
// failure this layer exists to route around.
const httpAttemptTimeout = 5 * time.Second

// ServeOverHTTP makes every page attempt and health probe a GET to the
// replica's own server: urls[shard][replica] is the base URL of the
// ReplicaServer in front of that replica, for every one of the fleet's
// Shards × Replicas. Routing, generations and the gray-failure policy
// stay the fleet's; queries still run in-process. It must be called
// before the first fetch. Attempts are bounded by httpAttemptTimeout
// unless Gray.AttemptTimeout is set.
func (f *Fleet) ServeOverHTTP(urls [][]string) error {
	if len(urls) != f.cfg.Shards {
		return fmt.Errorf("fleet: %d shards of replica URLs for %d shards", len(urls), f.cfg.Shards)
	}
	for s, u := range urls {
		if len(u) != f.cfg.Replicas {
			return fmt.Errorf("fleet: shard %d has %d replica URLs for %d replicas", s, len(u), f.cfg.Replicas)
		}
	}
	if f.gray.cfg.AttemptTimeout <= 0 {
		f.gray.cfg.AttemptTimeout = httpAttemptTimeout
	}
	client := &http.Client{Timeout: 30 * time.Second}
	f.attempt = func(ctx context.Context, shard, idx int, key string, _ dynamic.PageRef) (string, int64, error) {
		return fetchOne(ctx, client, f.cfg.Obs, urls[shard][idx], key)
	}
	return nil
}

// fetchOne performs a single replica request. Transport failures,
// 503s, checksum mismatches and a 200 without the generation and body
// hash headers come back as *errUnavail (retryable on a sibling,
// possibly carrying the replica's Retry-After hint); any other non-200
// is deterministic and surfaces as-is.
func fetchOne(ctx context.Context, client *http.Client, m *obs.FleetMetrics, base, key string) (string, int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/page/"+urlEscapeKey(key), nil)
	if err != nil {
		return "", 0, err
	}
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set(deadlineHeader, strconv.FormatInt(ms, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", 0, &errUnavail{cause: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		// Reset or stall mid-body: the request context (attempt
		// timeout) unblocks the read; either way the bytes are unusable.
		return "", 0, &errUnavail{cause: err}
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		// A 200 without both headers is not a replica's answer: its
		// bytes cannot be verified or labelled with a generation.
		want := resp.Header.Get(bodyHashHeader)
		gen, err := strconv.ParseInt(resp.Header.Get(genHeader), 10, 64)
		if want == "" || err != nil || gen < 0 {
			return "", 0, &errUnavail{cause: fmt.Errorf("replica %s: 200 without valid %s and %s", base, genHeader, bodyHashHeader)}
		}
		if htmlgen.PageHash(string(b)) != want {
			if m != nil {
				m.ChecksumFailures.Inc()
			}
			return "", 0, &errUnavail{cause: fmt.Errorf("body checksum mismatch from %s", base)}
		}
		return string(b), gen, nil
	case resp.StatusCode == http.StatusServiceUnavailable:
		return "", 0, &errUnavail{
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
			cause:      fmt.Errorf("replica %s: status 503", base),
		}
	default:
		return "", 0, fmt.Errorf("fleet: replica %s: status %d", base, resp.StatusCode)
	}
}

// parseRetryAfter parses a Retry-After header's delay-seconds form
// (the only form this tier emits); 0 when absent or unparseable.
func parseRetryAfter(v string) time.Duration {
	return parseCount(v, time.Second)
}
