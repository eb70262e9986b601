package fleet

import (
	"io"
	"math/rand"
	"net/http"
	"regexp"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"strudel/internal/obs"
)

// openLoad is the serving tests' open-loop load generator: arrivals
// fire at a fixed rate however slowly responses come back, so a slow
// server faces a growing backlog as it would under real traffic. Pages
// are crawled from / and picked zipfian (s = 1.1, v = 1) from a seeded
// source; latency lands in an obs.Histogram.
type openLoad struct {
	url    string                        // the edge under test
	rate   float64                       // arrivals per second
	warmup time.Duration                 // driven first, results discarded
	window time.Duration                 // the measured window
	seed   int64                         // page popularity
	verify func(path, body string) error // checks each 200 body; an error is a mismatch
	allow  []int                         // non-200 statuses counted as allowed, not errors
}

// loadMaxInflight bounds outstanding requests; arrivals past it are
// dropped and counted, not sent.
const loadMaxInflight = 1024

// loadReport is one measured window, in the JSON form the chaos-serve
// drill report carries.
type loadReport struct {
	Pages      int              `json:"pages"`
	Requests   int64            `json:"requests"`
	Dropped    int64            `json:"dropped"`
	Errors     int64            `json:"errors"`
	Allowed    int64            `json:"allowed"`
	Mismatches int64            `json:"mismatches"`
	Throughput float64          `json:"throughput_rps"`
	P50Nanos   int64            `json:"p50_nanos"`
	P99Nanos   int64            `json:"p99_nanos"`
	Status     map[string]int64 `json:"status"`

	mu   sync.Mutex
	hist obs.Histogram
}

var hrefRe = regexp.MustCompile(`href="(/page/[^"]+)"`)

// run crawls the site, then drives the warmup and the measured window.
func (l *openLoad) run(t testing.TB) *loadReport {
	t.Helper()
	client := &http.Client{Timeout: 30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: loadMaxInflight}}
	defer client.CloseIdleConnections()
	pages := []string{"/"}
	for i := 0; i < len(pages); i++ {
		body, _, err := l.get(client, pages[i])
		if err != nil && i == 0 {
			t.Fatalf("load: crawling /: %v", err)
		}
		for _, m := range hrefRe.FindAllStringSubmatch(body, -1) {
			if !slices.Contains(pages, m[1]) {
				pages = append(pages, m[1])
			}
		}
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(l.seed)), 1.1, 1, uint64(len(pages)-1))
	l.drive(client, pages, zipf, l.warmup, &loadReport{Status: map[string]int64{}})
	rep := &loadReport{Pages: len(pages), Status: map[string]int64{}}
	l.drive(client, pages, zipf, l.window, rep)
	rep.Throughput = float64(rep.Requests) / l.window.Seconds()
	rep.P50Nanos = rep.hist.Quantile(0.50)
	rep.P99Nanos = rep.hist.Quantile(0.99)
	return rep
}

func (l *openLoad) get(client *http.Client, path string) (string, int, error) {
	resp, err := client.Get(l.url + path)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), resp.StatusCode, err
}

// drive fires one window of arrivals into rep and waits for them. A
// Zipf is not safe for concurrent use, so pages are picked here; each
// request runs on its own goroutine so a slow one never delays the next.
func (l *openLoad) drive(client *http.Client, pages []string, zipf *rand.Zipf, window time.Duration, rep *loadReport) {
	sem := make(chan struct{}, loadMaxInflight)
	var wg sync.WaitGroup
	defer wg.Wait()
	tick := time.NewTicker(time.Duration(float64(time.Second) / l.rate))
	defer tick.Stop()
	end := time.After(window)
	for {
		select {
		case <-end:
			return
		case <-tick.C:
		}
		path := pages[zipf.Uint64()]
		select {
		case sem <- struct{}{}:
		default:
			rep.mu.Lock()
			rep.Dropped++
			rep.mu.Unlock()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			body, status, err := l.get(client, path)
			<-sem
			l.record(rep, path, body, status, err, time.Since(start))
		}()
	}
}

func (l *openLoad) record(rep *loadReport, path, body string, status int, err error, elapsed time.Duration) {
	mismatch := err == nil && status == http.StatusOK && l.verify != nil && l.verify(path, body) != nil
	rep.mu.Lock()
	defer rep.mu.Unlock()
	rep.Requests++
	rep.hist.Observe(int64(elapsed))
	if err != nil {
		rep.Errors++
		return
	}
	rep.Status[strconv.Itoa(status)]++
	switch {
	case mismatch:
		rep.Mismatches++
	case status == http.StatusOK:
	case slices.Contains(l.allow, status):
		rep.Allowed++
	default:
		rep.Errors++
	}
}
