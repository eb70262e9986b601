package dynamic

import (
	"context"
	"time"

	"strudel/internal/template"
)

// Fixtures shared with the external dynamic_test package, which may
// import packages that import this one (ivm, fleet): the publications
// site, and the slow query whose evaluation over a delayed FaultSource
// takes long enough to observe deadlines and shedding.
const (
	SiteQuery = siteQuery
	SlowQuery = slowQuery
)

var (
	FixtureData = testData
	SlowData    = slowData
)

// SiteView returns the template.Site a render against the evaluator's
// current generation reads pages through.
func SiteView(ev *Evaluator) template.Site {
	return dynSite{r: &dynRenderer{s: &Renderer{Ev: ev}, ctx: context.Background(), st: ev.snapshot()}}
}

// SetBackoff sets a reloader's retry backoff bounds and jitter fraction.
func SetBackoff(r *Reloader, lo, hi time.Duration, jitter float64) {
	r.backoffMin, r.backoffMax, r.jitter = lo, hi, jitter
}
