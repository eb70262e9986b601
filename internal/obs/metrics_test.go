package obs

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Load() != 0 {
		t.Fatalf("zero value Load = %d, want 0", c.Load())
	}
	c.Inc()
	c.Add(41)
	if c.Load() != 42 {
		t.Fatalf("Load = %d, want 42", c.Load())
	}
	c.Add(-7) // ignored: counters are monotonic
	if c.Load() != 42 {
		t.Fatalf("Load after Add(-7) = %d, want 42", c.Load())
	}
}

func TestGaugeBasics(t *testing.T) {
	var g Gauge
	g.Inc()
	g.Inc()
	g.Dec()
	g.Add(-3)
	if g.Load() != -2 {
		t.Fatalf("Load = %d, want -2", g.Load())
	}
	g.Set(7)
	if g.Load() != 7 {
		t.Fatalf("Load after Set = %d, want 7", g.Load())
	}
}

func TestHistogramBucketing(t *testing.T) {
	var h Histogram
	// Value → expected bucket index: bucket 0 is exactly 0, bucket i
	// covers [2^(i-1), 2^i).
	cases := map[int64]int{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 7: 3, 8: 4, 1023: 10, 1024: 11, -5: 0}
	for v := range cases {
		h.Observe(v)
	}
	s := h.Snapshot()
	counts := map[int]int64{}
	for v, b := range cases {
		counts[b]++
		_ = v
	}
	for i, want := range counts {
		if s.Buckets[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, s.Buckets[i], want)
		}
	}
	if s.Count != int64(len(cases)) {
		t.Errorf("Count = %d, want %d", s.Count, len(cases))
	}
	// -5 clamps to 0, so the sum counts it as 0.
	wantSum := int64(0)
	for v := range cases {
		if v > 0 {
			wantSum += v
		}
	}
	if s.Sum != wantSum {
		t.Errorf("Sum = %d, want %d", s.Sum, wantSum)
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	prev := int64(-1)
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile(%v) = %d < previous %d; quantiles must be monotone", q, v, prev)
		}
		prev = v
	}
	// p50 of 1..1000 lies in bucket [256,512) → upper bound 512.
	if got := h.Quantile(0.5); got != 512 {
		t.Errorf("Quantile(0.5) = %d, want 512", got)
	}
}

// TestNilSinksAreNoOps pins the disabled mode: every record method on a
// nil sink (and every span operation on a nil tracer/span) must be a
// no-op, because the hot paths call them unconditionally.
func TestNilSinksAreNoOps(t *testing.T) {
	var em *EvalMetrics
	em.RecordOp(OpPred, 10, 5)
	em.RecordNFA(true)
	em.RecordPlan(false)
	em.RecordRowMap(4)
	em.RecordWhere()
	var sm *SourceMetrics
	sm.RecordLoad(100, nil)
	sm.RecordDelta(5)
	var gm *GenMetrics
	gm.RecordWave(3, 100)
	var tr *Tracer
	s := tr.Start("x", "k", "v")
	if s != nil {
		t.Fatal("nil tracer Start should return nil span")
	}
	s.Annotate("k", "v")
	c := s.Child("y")
	c.End()
	s.End()
	if spans := tr.Spans(); spans != nil {
		t.Fatalf("nil tracer Spans = %v, want nil", spans)
	}
	if err := tr.WriteJSON(nil); err != nil {
		t.Fatalf("nil tracer WriteJSON: %v", err)
	}
}

// hammerWorkers is the concurrency level of the raced property tests;
// run with -race.
const hammerWorkers = 32

// TestRacedCounterMonotonic hammers a counter from 32 goroutines while a
// reader snapshots it, asserting every successive read is monotone and
// the final total is exact.
func TestRacedCounterMonotonic(t *testing.T) {
	var c Counter
	const perWorker = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		prev := int64(0)
		for i := 0; i < 10000; i++ {
			v := c.Load()
			if v < prev {
				t.Errorf("counter went backwards: %d after %d", v, prev)
				return
			}
			prev = v
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < hammerWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	<-done
	if got := c.Load(); got != hammerWorkers*perWorker {
		t.Fatalf("final count = %d, want %d", got, hammerWorkers*perWorker)
	}
}

// TestRacedHistogramSnapshots hammers a histogram from 32 goroutines
// while a reader snapshots it, asserting that in every snapshot Count
// equals the bucket sum (no torn view) and count and sum never decrease.
func TestRacedHistogramSnapshots(t *testing.T) {
	var h Histogram
	const perWorker = 1000
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var prevCount, prevSum int64
		for {
			s := h.Snapshot()
			var bucketSum int64
			for _, b := range s.Buckets {
				bucketSum += b
			}
			if s.Count != bucketSum {
				t.Errorf("torn snapshot: Count=%d, bucket sum=%d", s.Count, bucketSum)
				return
			}
			if s.Count < prevCount || s.Sum < prevSum {
				t.Errorf("snapshot went backwards: count %d→%d, sum %d→%d",
					prevCount, s.Count, prevSum, s.Sum)
				return
			}
			prevCount, prevSum = s.Count, s.Sum
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < hammerWorkers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := int64(0); i < perWorker; i++ {
				h.Observe(seed*1000 + i)
			}
		}(int64(w))
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if got := h.Count(); got != hammerWorkers*perWorker {
		t.Fatalf("final count = %d, want %d", got, hammerWorkers*perWorker)
	}
}

// TestRacedRegistryJSON hammers every metric family through a registry
// while a reader repeatedly renders and re-parses the expvar JSON,
// asserting it always parses and its counters never decrease.
func TestRacedRegistryJSON(t *testing.T) {
	em := &EvalMetrics{}
	sm := &SourceMetrics{}
	gm := &GenMetrics{}
	sv := &ServeMetrics{}
	reg := NewRegistry()
	reg.Register("eval", em)
	reg.Register("sources", sm)
	reg.Register("htmlgen", gm)
	reg.Register("serve", sv)

	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		prevWhere := float64(0)
		for {
			var parsed map[string]map[string]any
			if err := json.Unmarshal([]byte(reg.String()), &parsed); err != nil {
				t.Errorf("registry JSON does not parse: %v", err)
				return
			}
			w, ok := parsed["eval"]["where_evals"].(float64)
			if !ok {
				t.Errorf("where_evals missing from registry JSON")
				return
			}
			if w < prevWhere {
				t.Errorf("where_evals went backwards: %v after %v", w, prevWhere)
				return
			}
			prevWhere = w
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < hammerWorkers; w++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				em.RecordOp(i%NumOps, i, i/2)
				em.RecordWhere()
				em.RecordNFA(i%2 == 0)
				em.RecordPlan(i%3 == 0)
				em.RecordRowMap(i % 8)
				sm.RecordLoad(int64(i), nil)
				sm.RecordDelta(i)
				gm.RecordWave(i%10, int64(i))
				sv.Shed.Inc()
				sv.InFlight.Inc()
				sv.InFlight.Dec()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone

	if got := em.WhereEvals.Load(); got != hammerWorkers*500 {
		t.Fatalf("where_evals = %d, want %d", got, hammerWorkers*500)
	}
	if got := sv.InFlight.Load(); got != 0 {
		t.Fatalf("in_flight = %d after balanced inc/dec, want 0", got)
	}
}
