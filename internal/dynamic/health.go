package dynamic

import (
	"encoding/json"
	"sync"
	"time"
)

// Health tracks the serving layer's degradation state: whether the last
// source reload succeeded, and the reload counters ops dashboards want.
// A degraded server keeps serving the last-good data graph; /healthz is
// how the outside learns it is stale.
type Health struct {
	mu       sync.Mutex
	degraded bool
	reason   string
	reloads  int
	failures int
	// failedRounds counts degraded windows: it increments only on the
	// healthy→degraded transition, so a round of backoff retries that
	// ends in a successful swap counts as one failed round no matter how
	// many attempts it took.
	failedRounds int
	consecFail   int
	lastReload   time.Time
	lastError    time.Time
}

// NewHealth returns a healthy Health.
func NewHealth() *Health { return &Health{} }

// SetDegraded records a failed reload: the server keeps serving last-good
// data and reports degraded until a reload succeeds.
func (h *Health) SetDegraded(err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.degraded {
		h.failedRounds++
	}
	h.degraded = true
	h.reason = err.Error()
	h.failures++
	h.consecFail++
	h.lastError = time.Now()
}

// SetHealthy records a successful reload, clearing degradation.
func (h *Health) SetHealthy() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.degraded = false
	h.reason = ""
	h.reloads++
	h.consecFail = 0
	h.lastReload = time.Now()
}

// Degraded reports whether the last reload attempt failed.
func (h *Health) Degraded() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.degraded
}

// HealthStatus is the JSON shape /healthz serves.
type HealthStatus struct {
	// Status is "ok" or "degraded".
	Status string `json:"status"`
	// Reason carries the last reload error while degraded. Reload errors
	// describe the operator's own source files, not request internals, so
	// exposing them on the ops endpoint is intentional.
	Reason string `json:"reason,omitempty"`
	// Reloads and Failures count successful and failed reload attempts.
	Reloads  int `json:"reloads"`
	Failures int `json:"failures"`
	// FailedRounds counts degraded windows: a run of consecutive failed
	// attempts ending in a successful reload is one failed round,
	// however many backoff retries it spans.
	FailedRounds int `json:"failedRounds"`
	// ConsecutiveFailures counts failures since the last success; the
	// reload loop's backoff grows with it.
	ConsecutiveFailures int `json:"consecutiveFailures"`
	// CachedPages is the evaluator's current page-cache size.
	CachedPages int `json:"cachedPages"`
	// LastReload is the time of the last successful reload (RFC 3339),
	// empty before the first one.
	LastReload string `json:"lastReload,omitempty"`
}

// Snapshot returns the current status with the given cache size filled in.
func (h *Health) Snapshot(cachedPages int) HealthStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := HealthStatus{
		Status:              "ok",
		Reloads:             h.reloads,
		Failures:            h.failures,
		FailedRounds:        h.failedRounds,
		ConsecutiveFailures: h.consecFail,
		CachedPages:         cachedPages,
	}
	if h.degraded {
		st.Status = "degraded"
		st.Reason = h.reason
	}
	if !h.lastReload.IsZero() {
		st.LastReload = h.lastReload.Format(time.RFC3339)
	}
	return st
}

// StatusJSON renders the status as JSON for /healthz.
func (h *Health) StatusJSON(cachedPages int) []byte {
	b, err := json.Marshal(h.Snapshot(cachedPages))
	if err != nil {
		return []byte(`{"status":"ok"}`)
	}
	return append(b, '\n')
}
