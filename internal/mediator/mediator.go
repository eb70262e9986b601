// Package mediator implements Strudel's data-integration component
// (§2.1): it provides a uniform view of all underlying data, irrespective
// of where it is stored, by warehousing wrapped sources into one data
// graph in the repository.
//
// The relationship between the mediated schema and each source follows
// the global-as-view (GAV) approach the paper chose: each source carries
// an optional mapping query — a StruQL query over the source's graph —
// whose result contributes to the mediated data graph; sources without a
// mapping contribute their graph directly. Warehousing (rather than
// on-demand access) matches the prototype's choice for small, slowly
// changing source sets.
//
// Refresh re-runs the named sources' wrappers, recomputes their
// contributions, and reports the delta, as one transaction: either every
// named source is replaced and the merged data graph's new snapshot
// (Data) committed, or nothing changes. The reload loop
// (dynamic.Reloader) refreshes the sources whose files changed and hands
// the snapshot and delta on: to package ivm, which patches a published
// site, or to the serving fleet, which invalidates its caches.
package mediator

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"strudel/internal/diag"
	"strudel/internal/graph"
	"strudel/internal/obs"
	"strudel/internal/struql"
)

// Source is one external data source behind a wrapper.
type Source struct {
	// Name identifies the source in the mediator.
	Name string
	// Load invokes the wrapper and returns the source's graph.
	Load func() (*graph.Graph, error)
	// Paths are the files a reload loop polls for this source; a change
	// to any of them triggers a Refresh. Sources that are not reloaded
	// leave it empty.
	Paths []string
	// LoadLenient, when non-nil, invokes the wrapper in fail-soft mode:
	// malformed records are skipped and reported instead of aborting the
	// load. WarehouseLenient prefers it over Load; sources without one
	// fall back to Load, a whole-source failure counting as one skipped
	// record against the budget.
	LoadLenient func() (*graph.Graph, *diag.Report, error)
	// Mapping, when non-nil, is the GAV query evaluated over the loaded
	// graph; its result is the source's contribution to the mediated
	// graph. A nil mapping contributes the loaded graph unchanged.
	Mapping *struql.Query
}

// Mediator integrates a set of sources into one mediated data graph.
type Mediator struct {
	sources []Source
	// contributions caches each source's current contribution; data is
	// the snapshot of their merge. Only commit replaces either.
	contributions map[string]*graph.Graph
	data          *graph.Frozen
	// Obs, when non-nil, receives per-source load timings and refresh
	// delta sizes. Set it before Warehouse/Refresh; nil disables.
	Obs *obs.SourceMetrics
}

// New returns a mediator over the given sources. Source names must be
// unique.
func New(sources ...Source) (*Mediator, error) {
	seen := map[string]bool{}
	for _, s := range sources {
		if s.Name == "" || s.Load == nil {
			return nil, fmt.Errorf("mediator: source needs a name and a Load function")
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("mediator: duplicate source %q", s.Name)
		}
		seen[s.Name] = true
	}
	return &Mediator{sources: sources, contributions: map[string]*graph.Graph{}}, nil
}

// SourceNames returns the configured source names, in order.
func (m *Mediator) SourceNames() []string {
	names := make([]string, len(m.sources))
	for i, s := range m.sources {
		names[i] = s.Name
	}
	return names
}

// contribution loads one source and applies its mapping.
func (m *Mediator) contribution(s Source) (*graph.Graph, error) {
	start := time.Now()
	g, err := s.Load()
	if err != nil {
		m.Obs.RecordLoad(int64(time.Since(start)), err)
		return nil, fmt.Errorf("mediator: source %s: %w", s.Name, err)
	}
	return m.mapped(s, g, start)
}

// mapped applies s's mapping to its loaded graph g and records the load
// time since start, which covers wrapper invocation plus mapping
// evaluation — the full cost of bringing the source's contribution up to
// date.
func (m *Mediator) mapped(s Source, g *graph.Graph, start time.Time) (*graph.Graph, error) {
	if s.Mapping == nil {
		m.Obs.RecordLoad(int64(time.Since(start)), nil)
		return g, nil
	}
	r, err := struql.Eval(s.Mapping, g, nil)
	m.Obs.RecordLoad(int64(time.Since(start)), err)
	if err != nil {
		return nil, fmt.Errorf("mediator: source %s: mapping: %w", s.Name, err)
	}
	return r.Graph, nil
}

// Warehouse loads every source and merges the contributions into one
// data graph (the repository's "data graph"), returned as its snapshot:
// the repository's indexes (§2.1). A merged graph past the snapshot's id
// capacity fails with a *graph.CapacityError. A failure changes nothing.
func (m *Mediator) Warehouse() (*graph.Frozen, error) {
	next := make(map[string]*graph.Graph, len(m.sources))
	for _, s := range m.sources {
		c, err := m.contribution(s)
		if err != nil {
			return nil, err
		}
		next[s.Name] = c
	}
	return m.commit(next)
}

// commit merges the current contributions, with next replacing those of
// the sources it names, and freezes the result. Only when the snapshot
// succeeds do next's contributions and the snapshot become current: a
// failure changes nothing.
func (m *Mediator) commit(next map[string]*graph.Graph) (*graph.Frozen, error) {
	f, err := m.merged(next).Snapshot()
	if err != nil {
		return nil, err
	}
	m.install(next, f)
	return f, nil
}

// install makes next's contributions and the snapshot f of the new merge
// current.
func (m *Mediator) install(next map[string]*graph.Graph, f *graph.Frozen) {
	for name, c := range next {
		m.contributions[name] = c
	}
	m.data = f
}

// merged merges, in source order, each source's contribution from next
// or else its current one (sources with neither are left out) into one
// graph pre-sized for their combined node and edge counts, so the merge
// grows each structure once instead of rehashing incrementally per edge.
func (m *Mediator) merged(next map[string]*graph.Graph) *graph.Graph {
	contribs := make([]*graph.Graph, 0, len(m.sources))
	nodes, edges := 0, 0
	for _, s := range m.sources {
		c, ok := next[s.Name]
		if !ok {
			c, ok = m.contributions[s.Name]
		}
		if ok {
			contribs = append(contribs, c)
			nodes += c.NumNodes()
			edges += c.NumEdges()
		}
	}
	g := graph.NewWithCapacity(nodes, edges)
	for _, c := range contribs {
		g.Merge(c)
	}
	return g
}

// SourceReport pairs a source name with the skip report its fail-soft
// load produced.
type SourceReport struct {
	Name   string
	Report *diag.Report
}

// contributionLenient is contribution in fail-soft mode. Dirty data
// never returns an error: sources with a LoadLenient report per-record
// skips; sources without one degrade a whole-source failure to an empty
// contribution counted as one skipped record. Errors are reserved for
// the site author's bugs (a failing mapping query, bad options).
func (m *Mediator) contributionLenient(s Source) (*graph.Graph, *diag.Report, error) {
	start := time.Now()
	if s.LoadLenient == nil {
		rep := &diag.Report{Records: 1}
		g, err := s.Load()
		if err != nil {
			m.Obs.RecordLoad(int64(time.Since(start)), err)
			rep.Skipped = 1
			rep.Add(diag.Diagnostic{Source: s.Name, Severity: diag.Error,
				Message: "source failed to load: " + err.Error()})
			return graph.New(), rep, nil
		}
		g, err = m.mapped(s, g, start)
		return g, rep, err
	}
	g, rep, err := s.LoadLenient()
	if err != nil {
		m.Obs.RecordLoad(int64(time.Since(start)), err)
		return nil, rep, fmt.Errorf("mediator: source %s: %w", s.Name, err)
	}
	if rep == nil {
		rep = &diag.Report{}
	}
	g, err = m.mapped(s, g, start)
	return g, rep, err
}

// WarehouseLenient loads every source in fail-soft mode and merges the
// surviving contributions. Every source is loaded — even after one
// fails — so the returned reports always cover the whole source set and
// a single run surfaces every diagnostic. The build fails (with the
// first failure, in source order) when a source's skips exceed the
// budget or a mapping errors; the reports accompany the error. A failure
// changes nothing.
func (m *Mediator) WarehouseLenient(budget diag.Budget) (*graph.Frozen, []SourceReport, error) {
	next := make(map[string]*graph.Graph, len(m.sources))
	reports := make([]SourceReport, 0, len(m.sources))
	var firstErr error
	for _, s := range m.sources {
		c, rep, err := m.contributionLenient(s)
		reports = append(reports, SourceReport{Name: s.Name, Report: rep})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if budget.Exceeded(rep.Skipped, rep.Records) {
			if firstErr == nil {
				firstErr = &diag.BudgetError{Source: s.Name, Skipped: rep.Skipped,
					Records: rep.Records, Budget: budget}
			}
			continue
		}
		next[s.Name] = c
	}
	if firstErr != nil {
		return nil, reports, firstErr
	}
	f, err := m.commit(next)
	return f, reports, err
}

// Data returns the snapshot of the current data graph: the one the last
// successful Warehouse, WarehouseLenient or Refresh committed, nil before
// the first. It is what a consumer reads; DataGraph is a mutable copy.
func (m *Mediator) Data() *graph.Frozen { return m.data }

// DataGraph returns a fresh mutable merge of the current contributions
// without reloading sources, for callers that must edit the data graph;
// Warehouse must have run.
func (m *Mediator) DataGraph() *graph.Graph { return m.merged(nil) }

// Delta describes the difference between two versions of a graph.
type Delta struct {
	AddedEdges   []graph.Edge
	RemovedEdges []graph.Edge
	// AddedMembers and RemovedMembers record collection-membership
	// changes as (collection, oid) pairs.
	AddedMembers   []Membership
	RemovedMembers []Membership
}

// Membership is one (collection, member) pair.
type Membership = graph.Membership

// Empty reports whether the delta contains no changes.
func (d *Delta) Empty() bool {
	return len(d.AddedEdges) == 0 && len(d.RemovedEdges) == 0 &&
		len(d.AddedMembers) == 0 && len(d.RemovedMembers) == 0
}

// Size returns the total number of recorded changes.
func (d *Delta) Size() int {
	return len(d.AddedEdges) + len(d.RemovedEdges) + len(d.AddedMembers) + len(d.RemovedMembers)
}

// Merge folds another delta into this one by concatenation; Compact
// reduces the result to its net effect.
func (d *Delta) Merge(o *Delta) {
	if o == nil {
		return
	}
	d.AddedEdges = append(d.AddedEdges, o.AddedEdges...)
	d.RemovedEdges = append(d.RemovedEdges, o.RemovedEdges...)
	d.AddedMembers = append(d.AddedMembers, o.AddedMembers...)
	d.RemovedMembers = append(d.RemovedMembers, o.RemovedMembers...)
}

// Compact reduces the delta to its net effect: opposing add/remove
// records of the same edge or membership cancel pairwise and repeats
// dedupe, leaving at most one record per distinct element. This is sound
// for any delta built by composing consecutive graph diffs: per element
// the add/remove events alternate, so the sign of adds−removes is
// exactly the element's old-state→new-state change (positive = added,
// negative = removed, zero = unchanged). Output order is deterministic
// (the same sort as Diff).
func (d *Delta) Compact() {
	edgeNet := make(map[graph.Edge]int, len(d.AddedEdges)+len(d.RemovedEdges))
	for _, e := range d.AddedEdges {
		edgeNet[e]++
	}
	for _, e := range d.RemovedEdges {
		edgeNet[e]--
	}
	d.AddedEdges, d.RemovedEdges = nil, nil
	for e, n := range edgeNet {
		switch {
		case n > 0:
			d.AddedEdges = append(d.AddedEdges, e)
		case n < 0:
			d.RemovedEdges = append(d.RemovedEdges, e)
		}
	}
	sortEdgeDelta(d.AddedEdges)
	sortEdgeDelta(d.RemovedEdges)

	memNet := make(map[Membership]int, len(d.AddedMembers)+len(d.RemovedMembers))
	for _, m := range d.AddedMembers {
		memNet[m]++
	}
	for _, m := range d.RemovedMembers {
		memNet[m]--
	}
	d.AddedMembers, d.RemovedMembers = nil, nil
	for m, n := range memNet {
		switch {
		case n > 0:
			d.AddedMembers = append(d.AddedMembers, m)
		case n < 0:
			d.RemovedMembers = append(d.RemovedMembers, m)
		}
	}
	sortMemberDelta(d.AddedMembers)
	sortMemberDelta(d.RemovedMembers)
}

func sortEdgeDelta(edges []graph.Edge) { slices.SortFunc(edges, graph.CompareEdges) }

func sortMemberDelta(ms []Membership) { slices.SortFunc(ms, graph.CompareMemberships) }

// Diff computes new − old and old − new for edges and memberships.
func Diff(old, new *graph.Graph) *Delta { return deltaOf(diff(old, new)) }

// deltaOf returns the edges and memberships of a change as a Delta.
func deltaOf(c *graph.Change) *Delta {
	return &Delta{AddedEdges: c.AddedEdges, RemovedEdges: c.RemovedEdges,
		AddedMembers: c.AddedMembers, RemovedMembers: c.RemovedMembers}
}

// diff is Diff that also reports the nodes and declared collections that
// entered or left, as a sorted Change. It compares each node's out-edges
// (each collection's members) in insertion order with the same node's
// (collection's) in the other version and set-diffs only the lists that
// differ, so a graph rebuilt from unchanged data costs one pass over its
// lists and no allocation.
func diff(old, new *graph.Graph) *graph.Change {
	c := &graph.Change{}
	new.ForEachNode(func(oid graph.OID, out []graph.Edge) {
		was := old.OutList(oid)
		if was == nil && !old.HasNode(oid) {
			c.AddedNodes = append(c.AddedNodes, oid)
		}
		if slices.Equal(out, was) {
			return
		}
		for _, e := range out {
			if !old.HasEdge(e.From, e.Label, e.To) {
				c.AddedEdges = append(c.AddedEdges, e)
			}
		}
		for _, e := range was {
			if !new.HasEdge(e.From, e.Label, e.To) {
				c.RemovedEdges = append(c.RemovedEdges, e)
			}
		}
	})
	old.ForEachNode(func(oid graph.OID, out []graph.Edge) {
		if !new.HasNode(oid) {
			c.RemovedNodes = append(c.RemovedNodes, oid)
			c.RemovedEdges = append(c.RemovedEdges, out...)
		}
	})
	for _, coll := range new.CollectionNames() {
		ms, was := new.Members(coll), old.Members(coll)
		if !old.HasCollection(coll) {
			c.AddedColls = append(c.AddedColls, coll)
		}
		if slices.Equal(ms, was) {
			continue
		}
		for _, oid := range ms {
			if !old.InCollection(coll, oid) {
				c.AddedMembers = append(c.AddedMembers, Membership{Coll: coll, OID: oid})
			}
		}
		for _, oid := range was {
			if !new.InCollection(coll, oid) {
				c.RemovedMembers = append(c.RemovedMembers, Membership{Coll: coll, OID: oid})
			}
		}
	}
	for _, coll := range old.CollectionNames() {
		if !new.HasCollection(coll) {
			c.RemovedColls = append(c.RemovedColls, coll)
			for _, oid := range old.Members(coll) {
				c.RemovedMembers = append(c.RemovedMembers, Membership{Coll: coll, OID: oid})
			}
		}
	}
	sortChange(c)
	return c
}

// sortChange sorts every list of c and drops repeats.
func sortChange(c *graph.Change) {
	c.AddedNodes = sortedSet(c.AddedNodes, cmp.Compare[graph.OID])
	c.RemovedNodes = sortedSet(c.RemovedNodes, cmp.Compare[graph.OID])
	c.AddedEdges = sortedSet(c.AddedEdges, graph.CompareEdges)
	c.RemovedEdges = sortedSet(c.RemovedEdges, graph.CompareEdges)
	c.AddedMembers = sortedSet(c.AddedMembers, graph.CompareMemberships)
	c.RemovedMembers = sortedSet(c.RemovedMembers, graph.CompareMemberships)
	c.AddedColls, c.RemovedColls = sortedSet(c.AddedColls, strings.Compare), sortedSet(c.RemovedColls, strings.Compare)
}

func sortedSet[T any](s []T, cmp func(a, b T) int) []T {
	slices.SortFunc(s, cmp)
	return slices.CompactFunc(s, func(a, b T) bool { return cmp(a, b) == 0 })
}

// netChange turns the named sources' diffs against their next
// contributions into the net change of the merged data graph, sorted:
// an element one source adds is no change when another source's current
// contribution already has it, and one a source removes stays while
// another source's next contribution still has it. It reads only the
// other contributions, O(delta × sources). exact is false when a diff
// adds or removes an edge into a node its graph does not hold (a target
// RemoveNode left behind): the merge re-creates such a node, and the
// contributions' node sets do not show it entering or leaving.
func (m *Mediator) netChange(next map[string]*graph.Graph) (net *graph.Change, exact bool) {
	net, exact = &graph.Change{}, true
	for _, s := range m.sources {
		c, ok := next[s.Name]
		if !ok {
			continue
		}
		old, ok := m.contributions[s.Name]
		if !ok {
			old = graph.New()
		}
		d := diff(old, c)
		exact = exact && !dangles(d, old, c)
		var before, after []*graph.Graph // the other sources' contributions
		for _, o := range m.sources {
			if o.Name == s.Name {
				continue
			}
			cur, hadCur := m.contributions[o.Name]
			if hadCur {
				before = append(before, cur)
			}
			if nx, ok := next[o.Name]; ok {
				after = append(after, nx)
			} else if hadCur {
				after = append(after, cur)
			}
		}
		hasNode := (*graph.Graph).HasNode
		hasEdge := func(g *graph.Graph, e graph.Edge) bool { return g.HasEdge(e.From, e.Label, e.To) }
		hasMember := func(g *graph.Graph, ms Membership) bool { return g.InCollection(ms.Coll, ms.OID) }
		net.AddedNodes = appendUnheld(net.AddedNodes, d.AddedNodes, before, hasNode)
		net.RemovedNodes = appendUnheld(net.RemovedNodes, d.RemovedNodes, after, hasNode)
		net.AddedEdges = appendUnheld(net.AddedEdges, d.AddedEdges, before, hasEdge)
		net.RemovedEdges = appendUnheld(net.RemovedEdges, d.RemovedEdges, after, hasEdge)
		net.AddedMembers = appendUnheld(net.AddedMembers, d.AddedMembers, before, hasMember)
		net.RemovedMembers = appendUnheld(net.RemovedMembers, d.RemovedMembers, after, hasMember)
		net.AddedColls = appendUnheld(net.AddedColls, d.AddedColls, before, (*graph.Graph).HasCollection)
		net.RemovedColls = appendUnheld(net.RemovedColls, d.RemovedColls, after, (*graph.Graph).HasCollection)
	}
	sortChange(net)
	return net, exact
}

// dangles reports whether d adds or removes an edge into a node that is
// not in the graph holding the edge.
func dangles(d *graph.Change, old, new *graph.Graph) bool {
	for _, e := range d.AddedEdges {
		if e.To.IsNode() && !new.HasNode(e.To.OID()) {
			return true
		}
	}
	for _, e := range d.RemovedEdges {
		if e.To.IsNode() && !old.HasNode(e.To.OID()) {
			return true
		}
	}
	return false
}

// appendUnheld appends to dst the elements of xs that no graph of others
// holds.
func appendUnheld[T any](dst, xs []T, others []*graph.Graph, has func(*graph.Graph, T) bool) []T {
next:
	for _, x := range xs {
		for _, g := range others {
			if has(g, x) {
				continue next
			}
		}
		dst = append(dst, x)
	}
	return dst
}

// Refresh reloads the named sources and maps their contributions, then
// commits them with the merged data graph's new snapshot (Data) as one
// transaction: any failure — an unknown name, a failed load or mapping,
// a merged graph past the snapshot's capacity — returns an error and
// changes nothing. The new snapshot is the last one with the net change
// applied (graph.Frozen.Apply), so a reload costs the edit, not the
// site. It is frozen from the merge instead before the first Warehouse,
// and when a contribution has dangling edges (into nodes it removed):
// the merge re-creates those nodes, so the net change cannot tell which
// nodes enter or leave. The delta is the net change of the merged data
// graph, sorted as Diff sorts (empty when nothing changed).
func (m *Mediator) Refresh(names ...string) (*Delta, error) {
	want := make(map[string]bool, len(names))
	for _, name := range names {
		want[name] = true
	}
	next := make(map[string]*graph.Graph, len(names))
	for _, s := range m.sources {
		if !want[s.Name] {
			continue
		}
		delete(want, s.Name)
		c, err := m.contribution(s)
		if err != nil {
			return nil, err
		}
		next[s.Name] = c
	}
	for _, name := range names {
		if want[name] {
			return nil, fmt.Errorf("mediator: unknown source %q", name)
		}
	}
	change, exact := m.netChange(next)
	var f *graph.Frozen
	var err error
	if m.data != nil && exact {
		// Apply refuses a change that does not describe the merge, which
		// only dangling edges it did not see cause; freeze that one too.
		var capErr *graph.CapacityError
		if f, err = m.data.Apply(*change); errors.As(err, &capErr) {
			return nil, err
		}
	}
	if f == nil {
		if f, err = m.merged(next).Snapshot(); err != nil {
			return nil, err
		}
	}
	m.install(next, f)
	d := deltaOf(change)
	m.Obs.RecordDelta(d.Size())
	return d, nil
}
