package dynamic

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
