package main

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The load generator is one process with a fixed, small number of
// connections (the machine has two cores and the server needs one).
// In an open loop every request has a due time on a schedule fixed
// before the first is sent, and is timed from that due time: if the
// server stalls, the requests queued behind the stall are charged the
// wait, as the users who sent them would be.

const (
	kindPage = iota
	kindQuery
)

const (
	// openConns bounds the requests an open loop has in flight. It is
	// far above what the reference rates need, so that a slow response
	// delays nobody else's send: independent users do not queue behind
	// one another on the client side.
	openConns = 16
	// closedConns is the client count of a closed loop: two cores, one
	// of them for the server.
	closedConns = 2
)

// request is one scheduled operation and what its answer must satisfy.
type request struct {
	kind int
	path string
	body string // POST body; empty means GET
	id   int    // stable identity of a hot page, for the same-bytes check
	want string // pages: text the body must contain
	rows int    // queries: total_rows the header must report
}

// sample is one completed (or abandoned) request.
type sample struct {
	kind    int
	latency time.Duration // completion − due time
	late    time.Duration // send − due time: how late the generator ran
	sentAt  time.Duration // send time since the phase started
	failed  bool
}

// loader sends requests over a bounded set of keep-alive connections.
type loader struct {
	base   string
	client *http.Client
	// check judges a response against what the generator knows; a false
	// is a failed request.
	check func(r *request, status int, h http.Header, body []byte) bool
}

func newLoader(base string, check func(*request, int, http.Header, []byte) bool) *loader {
	return &loader{
		base:  base,
		check: check,
		client: &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: openConns,
				MaxConnsPerHost:     openConns,
				DisableCompression:  true,
			},
		},
	}
}

func (l *loader) close() { l.client.CloseIdleConnections() }

// do sends one request and reports when the full body had arrived and
// whether the answer was right.
func (l *loader) do(r *request) (done time.Time, ok bool) {
	var resp *http.Response
	var err error
	if r.body != "" {
		resp, err = l.client.Post(l.base+r.path, "application/json", strings.NewReader(r.body))
	} else {
		resp, err = l.client.Get(l.base + r.path)
	}
	if err != nil {
		return time.Now(), false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done = time.Now()
	return done, err == nil && l.check(r, resp.StatusCode, resp.Header, body)
}

// open runs an open loop: reqs[i] is due at i/rate after the start. The
// workers take requests in order; one that comes due while every
// connection is busy waits, and its latency includes that wait. A
// request still unsent grace after the last due time is abandoned and
// counts as failed.
func (l *loader) open(reqs []request, rate float64, grace time.Duration) []sample {
	gap := time.Duration(float64(time.Second) / rate)
	samples := make([]sample, len(reqs))
	var next atomic.Int64
	start := time.Now().Add(5 * time.Millisecond)
	giveUp := start.Add(time.Duration(len(reqs))*gap + grace)
	var wg sync.WaitGroup
	for w := 0; w < openConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				due := start.Add(time.Duration(i) * gap)
				sleepUntil(due)
				sent := time.Now()
				if sent.After(giveUp) {
					samples[i] = sample{kind: reqs[i].kind, latency: sent.Sub(due), late: sent.Sub(due), sentAt: sent.Sub(start), failed: true}
					continue
				}
				done, ok := l.do(&reqs[i])
				samples[i] = sample{kind: reqs[i].kind, latency: done.Sub(due), late: sent.Sub(due), sentAt: sent.Sub(start), failed: !ok}
			}
		}()
	}
	wg.Wait()
	return samples
}

// sleepUntil blocks until t in a nanosleep system call. time.Sleep
// would do for coarse waits, but an idle Go scheduler rounds timers up to
// a millisecond, which is several times a cached page's latency; the
// kernel's timer is good to some tens of microseconds and burns no CPU.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // cut short by a signal: go round again
	}
}

// closed runs a closed loop for dur: each worker asks next for a request
// as soon as its previous one completes, and the loop stops early when
// next has none left. Latency is completion − send.
func (l *loader) closed(next func() (request, bool), dur time.Duration) (samples []sample, elapsed time.Duration) {
	var mu sync.Mutex
	start := time.Now()
	deadline := start.Add(dur)
	per := make([][]sample, closedConns)
	var wg sync.WaitGroup
	for w := 0; w < closedConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				r, ok := next()
				mu.Unlock()
				if !ok {
					return
				}
				sent := time.Now()
				done, ok := l.do(&r)
				per[w] = append(per[w], sample{kind: r.kind, latency: done.Sub(sent), sentAt: sent.Sub(start), failed: !ok})
			}
		}(w)
	}
	wg.Wait()
	elapsed = time.Since(start)
	for _, p := range per {
		samples = append(samples, p...)
	}
	return samples, elapsed
}

// phaseStats summarises one phase of load.
type phaseStats struct {
	pageMS, queryMS, allMS, lateMS []float64
	attempted, failed              int
	// backlogMid and backlogEnd are the requests due but unsent halfway
	// through and at the end of an open-loop phase, taken from how late
	// the requests sent at those moments were.
	backlogMid, backlogEnd float64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func summarise(samples []sample, rate float64) phaseStats {
	var st phaseStats
	var last time.Duration
	for _, s := range samples {
		if s.sentAt > last {
			last = s.sentAt
		}
	}
	var midBest time.Duration = -1
	for _, s := range samples {
		if s.sentAt == last {
			st.backlogEnd = s.late.Seconds() * rate
		}
		if d := (s.sentAt - last/2).Abs(); midBest < 0 || d < midBest {
			midBest, st.backlogMid = d, s.late.Seconds()*rate
		}
		st.attempted++
		if s.failed {
			st.failed++
			continue
		}
		st.allMS = append(st.allMS, ms(s.latency))
		st.lateMS = append(st.lateMS, ms(s.late))
		if s.kind == kindQuery {
			st.queryMS = append(st.queryMS, ms(s.latency))
		} else {
			st.pageMS = append(st.pageMS, ms(s.latency))
		}
	}
	return st
}

// firstLine returns body up to its first newline.
func firstLine(body []byte) []byte {
	if i := bytes.IndexByte(body, '\n'); i >= 0 {
		return body[:i]
	}
	return body
}
