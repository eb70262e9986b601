package dynamic

// The publications fixture, shared with the external dynamic_test
// package (which may import ivm, a package that imports this one).
const SiteQuery = siteQuery

var FixtureData = testData
