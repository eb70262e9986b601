package obs

import (
	"encoding/json"
	"testing"
)

// Percentile math at the power-of-two bucket boundaries. The histogram
// reports an UPPER bound: an observation v lands in the bucket whose
// range is [2^(k-1), 2^k) and every quantile that falls on it reports
// 2^k. These tests pin that contract exactly at the boundaries, where
// off-by-one bucket indexing would silently misreport latencies by 2x.

func TestHistogramQuantileKnownDistribution(t *testing.T) {
	var h Histogram
	// 1000 observations in four distinct buckets:
	//   500 × 3       → bucket [2,4),        upper bound 4
	//   490 × 100     → bucket [64,128),     upper bound 128
	//     9 × 1000    → bucket [512,1024),   upper bound 1024
	//     1 × 100000  → bucket [65536,131072), upper bound 131072
	for i := 0; i < 500; i++ {
		h.Observe(3)
	}
	for i := 0; i < 490; i++ {
		h.Observe(100)
	}
	for i := 0; i < 9; i++ {
		h.Observe(1000)
	}
	h.Observe(100000)

	for _, tc := range []struct {
		q    float64
		want int64
	}{
		{0.0, 4},        // first observation
		{0.25, 4},       // inside the first group
		{0.50, 128},     // rank 500: the first observation past the 3s
		{0.99, 1024},    // rank 990: inside the 1000s
		{0.999, 131072}, // rank 999: the single outlier
		{1.0, 131072},   // clamped to the last observation
	} {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %d, want %d", tc.q, got, tc.want)
		}
	}
}

func TestHistogramQuantileAtExactPowersOfTwo(t *testing.T) {
	// 2^k sits at the BOTTOM of bucket [2^k, 2^(k+1)): its upper bound
	// is 2^(k+1). 2^k - 1 sits at the TOP of the bucket below: upper
	// bound 2^k. The two must never be conflated.
	var atBoundary Histogram
	for i := 0; i < 100; i++ {
		atBoundary.Observe(1024)
	}
	if got := atBoundary.Quantile(0.5); got != 2048 {
		t.Errorf("all-1024 p50 = %d, want 2048 (1024 opens a new bucket)", got)
	}
	var belowBoundary Histogram
	for i := 0; i < 100; i++ {
		belowBoundary.Observe(1023)
	}
	if got := belowBoundary.Quantile(0.5); got != 1024 {
		t.Errorf("all-1023 p50 = %d, want 1024 (1023 tops the [512,1024) bucket)", got)
	}
}

func TestHistogramQuantileTailSensitivity(t *testing.T) {
	// p99.9 must see a 1-in-1000 outlier that p99 ignores.
	var h Histogram
	for i := 0; i < 999; i++ {
		h.Observe(1)
	}
	h.Observe(1 << 40)
	if got := h.Quantile(0.99); got != 2 {
		t.Errorf("p99 = %d, want 2 (the outlier is past rank 990)", got)
	}
	if got := h.Quantile(0.999); got != 1<<41 {
		t.Errorf("p999 = %d, want %d (the outlier's bucket bound)", got, int64(1)<<41)
	}
}

func TestHistogramQuantileDegenerateInputs(t *testing.T) {
	var empty Histogram
	for _, q := range []float64{0, 0.5, 0.99, 0.999, 1} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}
	var zeros Histogram
	for i := 0; i < 10; i++ {
		zeros.Observe(0)
	}
	if got := zeros.Quantile(0.999); got != 0 {
		t.Errorf("all-zero Quantile(0.999) = %d, want 0", got)
	}
	// Negative observations clamp to zero rather than corrupting a
	// bucket index.
	var neg Histogram
	neg.Observe(-5)
	if got := neg.Quantile(0.5); got != 0 {
		t.Errorf("negative-observation Quantile(0.5) = %d, want 0", got)
	}
}

// TestHistSnapPercentileKeys pins the /debug/vars histogram shape:
// dashboards and scripts read p50/p99/p999 back from it, so dropping a
// key is an API break even though it is "just JSON".
func TestHistSnapPercentileKeys(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(int64(i))
	}
	b, err := json.Marshal(histSnap(&h))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"count", "sum", "mean", "p50", "p99", "p999", "buckets"} {
		if _, ok := m[key]; !ok {
			t.Errorf("histSnap missing %q: %s", key, b)
		}
	}
}
