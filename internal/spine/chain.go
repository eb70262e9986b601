// Package spine is the serving tier's one HTTP middleware chain and its
// one error taxonomy. The page edge, the query API and the replica
// server each declare a Chain and put every route behind it:
//
//	recovery → (bypass routes | metrics → shedding → deadline → routes)
//
// and answer every failure through Chain.Fail, which maps the error to
// its typed code (errors.go), writes the one {"error":{...}} envelope
// with Retry-After where retrying can help, and keeps internal detail in
// the server log.
package spine

import (
	"context"
	"errors"
	"log"
	"net/http"
	"time"

	"strudel/internal/obs"
)

// Metrics are a chain's sinks; nil fields are not recorded.
type Metrics struct {
	// Requests counts requests entering the chain, shed ones included;
	// Latency observes their duration in nanoseconds; InFlight is the
	// number being served.
	Requests *obs.Counter
	Latency  *obs.Histogram
	InFlight *obs.Gauge
	// Shed counts requests refused at the inflight gate, Timeouts
	// requests answered with a deadline error, Panics recovered panics.
	Shed     *obs.Counter
	Timeouts *obs.Counter
	Panics   *obs.Counter
}

// Chain is one front's middleware. The zero value recovers panics and
// types errors, and does nothing else.
type Chain struct {
	// Name prefixes the chain's server-side log lines.
	Name string
	// Logger receives server-side error detail (what clients never
	// see); nil uses the process default logger.
	Logger *log.Logger
	// Timeout bounds each request through its context; 0 disables.
	Timeout time.Duration
	// MaxInflight bounds concurrently served requests; past it a request
	// is refused with a typed 503 + Retry-After before any work. 0 or
	// negative means unlimited.
	MaxInflight int
	Metrics     Metrics
	// Bypass maps exact paths to handlers served under recovery alone —
	// outside metrics, shedding and the deadline — so a saturated server
	// can still answer its health probe.
	Bypass map[string]http.HandlerFunc
}

// Handler puts routes behind the chain.
func (c *Chain) Handler(routes http.Handler) http.Handler {
	h := routes
	if c.Timeout > 0 {
		h = c.deadline(h)
	}
	if c.MaxInflight > 0 {
		h = c.shed(h)
	}
	h = c.measure(h)
	if len(c.Bypass) > 0 {
		guarded := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if b, ok := c.Bypass[r.URL.Path]; ok {
				b(w, r)
				return
			}
			guarded.ServeHTTP(w, r)
		})
	}
	return c.recover(h)
}

// Fail answers a request with the typed error err classifies to.
// Server-side failures (every 5xx but shedding) are logged in full; the
// client sees only the typed message, since error strings can embed
// data values and file paths. A cancelled request gets no response:
// nobody is listening. Fail returns what it wrote, or nil.
func (c *Chain) Fail(w http.ResponseWriter, r *http.Request, err error) *Error {
	e := Classify(err)
	if e == nil {
		return nil
	}
	var p *panicError
	switch {
	case e.Code == CodeDeadline:
		inc(c.Metrics.Timeouts)
	case errors.As(err, &p):
		inc(c.Metrics.Panics)
	}
	if e.HTTPStatus() >= 500 && e.Code != CodeOverloaded {
		c.logf("%s: %s: %v", r.URL.Path, e.Code, err)
	}
	Write(w, e)
	return e
}

func (c *Chain) logf(format string, args ...any) {
	if c.Name != "" {
		format = c.Name + ": " + format
	}
	if c.Logger != nil {
		c.Logger.Printf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// recover turns a handler panic into a logged, typed 500. If the
// handler had already written, the envelope is a late no-op header
// write and the truncated body tells the client the rest.
func (c *Chain) recover(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					panic(p)
				}
				c.Fail(w, r, Recovered(p))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// measure counts and times requests. Identity when no sink is set.
func (c *Chain) measure(next http.Handler) http.Handler {
	m := c.Metrics
	if m.Requests == nil && m.Latency == nil && m.InFlight == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inc(m.Requests)
		if m.InFlight != nil {
			m.InFlight.Inc()
			defer m.InFlight.Dec()
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		if m.Latency != nil {
			m.Latency.Observe(int64(time.Since(start)))
		}
	})
}

// shed admits at most MaxInflight requests and refuses the rest at
// once: overload protection must be cheaper than the work it refuses.
func (c *Chain) shed(next http.Handler) http.Handler {
	gate := make(chan struct{}, c.MaxInflight)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case gate <- struct{}{}:
			defer func() { <-gate }()
			next.ServeHTTP(w, r)
		default:
			inc(c.Metrics.Shed)
			Write(w, &Error{Code: CodeOverloaded, RetryAfter: 1,
				Message: "server overloaded, retry shortly"})
		}
	})
}

// deadline attaches the per-request timeout to the request context;
// evaluation observes it at operator boundaries.
func (c *Chain) deadline(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), c.Timeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

func inc(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}
