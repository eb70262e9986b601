// Soak tests for fail-soft incremental rebuilds: a sustained storm of
// seeded random edits per example site, with the incrementally
// maintained pages byte-compared against a from-scratch build after
// every single edit, and filesystem faults injected into every step of
// patch publication.
//
// SOAK_EDITS scales the storm length (default 60; CI runs 1000, and 250
// under the race detector).
package strudel_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"strudel/internal/core"
	"strudel/internal/faultfs"
	"strudel/internal/fsx"
	"strudel/internal/graph"
	"strudel/internal/ivm"
	"strudel/internal/mediator"
	"strudel/internal/obs"
	"strudel/internal/struql"
)

func soakEdits(t *testing.T) int {
	if s := os.Getenv("SOAK_EDITS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("SOAK_EDITS=%q: want a positive integer", s)
		}
		return n
	}
	return 60
}

// soakRand is the suite's self-contained LCG, so storms replay
// identically everywhere without math/rand's version skew.
type soakRand struct{ s uint64 }

func newSoakRand(seed uint64) *soakRand {
	return &soakRand{s: seed*2654435761 + 0x9e3779b97f4a7c15}
}

func (r *soakRand) n(k int) int {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return int((r.s >> 33) % uint64(k))
}

// soakEdit applies one random edit to a live data graph, drawing nodes,
// labels, and collections from the graph itself so the same generator
// storms every example site. The value vocabulary keeps strings
// alphabetic so no string renders like an int (a cross-type Skolem
// display collision would make page names issuance-order-dependent).
func soakEdit(r *soakRand, g *graph.Graph) {
	nodes := g.Nodes()
	if len(nodes) == 0 {
		g.AddToCollection("Reborn", "seedling")
		g.AddEdge("seedling", "title", graph.NewString("regrown"))
		return
	}
	node := func() graph.OID { return nodes[r.n(len(nodes))] }
	labels := g.Labels()
	label := func() string {
		if len(labels) == 0 || r.n(8) == 0 {
			return "soaknote"
		}
		return labels[r.n(len(labels))]
	}
	value := func() graph.Value {
		switch r.n(3) {
		case 0:
			return graph.NewString([]string{"alpha", "beta", "gamma", "delta"}[r.n(4)])
		case 1:
			return graph.NewInt(int64(1990 + r.n(10)))
		default:
			return graph.NewNode(node())
		}
	}
	colls := g.CollectionNames()
	coll := func() string {
		if len(colls) == 0 {
			return "Reborn"
		}
		return colls[r.n(len(colls))]
	}
	switch r.n(6) {
	case 0: // add an edge
		g.AddEdge(node(), label(), value())
	case 1: // remove an existing edge
		if es := g.Out(node()); len(es) > 0 {
			e := es[r.n(len(es))]
			g.RemoveEdge(e.From, e.Label, e.To)
		}
	case 2: // mutate a value in place
		if es := g.Out(node()); len(es) > 0 {
			e := es[r.n(len(es))]
			g.RemoveEdge(e.From, e.Label, e.To)
			g.AddEdge(e.From, e.Label, value())
		}
	case 3: // membership add
		g.AddToCollection(coll(), node())
	case 4: // membership remove
		if c := coll(); g.CollectionSize(c) > 0 {
			members := g.Collection(c)
			g.RemoveFromCollection(c, members[r.n(len(members))])
		}
	case 5: // whole-record deletion
		o := node()
		for _, e := range g.Out(o) {
			g.RemoveEdge(e.From, e.Label, e.To)
		}
		for _, c := range g.CollectionsOf(o) {
			g.RemoveFromCollection(c, o)
		}
		g.RemoveNode(o)
	}
}

// requireSamePages byte-compares the maintained site's pages against a
// from-scratch build of the same version over the same data.
func requireSamePages(t *testing.T, s *ivm.Site, v *core.Version, data *graph.Graph, context string) {
	t.Helper()
	vr, err := core.BuildVersionWith(v, struql.NewGraphSource(data), nil)
	if err != nil {
		t.Fatalf("%s: oracle build: %v", context, err)
	}
	got, want := s.Output().Pages, vr.Output.Pages
	if len(got) != len(want) {
		t.Fatalf("%s: %d pages incrementally, %d from scratch", context, len(got), len(want))
	}
	for name, w := range want {
		if got[name] != w {
			t.Fatalf("%s: page %s diverged after incremental maintenance:\n--- incremental\n%s\n--- full\n%s",
				context, name, got[name], w)
		}
	}
}

// TestSoakEditStorm runs the storm against the first version of every
// example site: each seeded random edit is diffed, applied
// incrementally, and the maintained pages are compared byte-for-byte
// with a full rebuild — after every edit, for the whole storm.
func TestSoakEditStorm(t *testing.T) {
	edits := soakEdits(t)
	for name, mk := range chaosSpecs() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec := mk()
			version := &spec.Versions[0]
			med, err := mediator.New(spec.Sources...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := med.Warehouse(); err != nil {
				t.Fatal(err)
			}
			cur := med.DataGraph()
			m := &obs.IVMMetrics{}
			site, err := ivm.NewSite(version, struql.NewGraphSource(cur), nil, m)
			if err != nil {
				t.Fatal(err)
			}
			requireSamePages(t, site, version, cur, "initial build")

			r := newSoakRand(uint64(len(name)) + 42)
			for i := 0; i < edits; i++ {
				prev := cur.Copy()
				soakEdit(r, cur)
				delta := mediator.Diff(prev, cur)
				if err := site.Apply(struql.NewGraphSource(cur), delta); err != nil {
					t.Fatalf("edit %d: apply: %v", i, err)
				}
				requireSamePages(t, site, version, cur, fmt.Sprintf("edit %d", i))
			}
			applied := m.DeltasApplied.Load()
			rebuilds := m.FullRebuilds.Load()
			t.Logf("%s: %d edits: %d incremental applies, %d full rebuilds", name, edits, applied, rebuilds)
			if applied+rebuilds == 0 && edits > 0 {
				t.Error("storm exercised neither the incremental nor the degraded path")
			}
		})
	}
}

// TestSoakPatchFaults injects a fault into every filesystem operation a
// patch publication performs — staged writes, hardlinks, directory
// creation, the swap renames, and the final sync — and asserts the
// published tree is always either the complete old generation or the
// complete new one, with a clean retry always converging on the new.
func TestSoakPatchFaults(t *testing.T) {
	spec := chaosSpecs()["homepage"]()
	version := &spec.Versions[0]
	med, err := mediator.New(spec.Sources...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := med.Warehouse(); err != nil {
		t.Fatal(err)
	}
	base := med.DataGraph()

	edited := base.Copy()
	r := newSoakRand(7)
	for i := 0; i < 5; i++ {
		soakEdit(r, edited)
	}
	delta := mediator.Diff(base, edited)
	if delta.Empty() {
		t.Fatal("fixture edits produced an empty delta")
	}

	// Golden trees for both generations, from clean publishes.
	tmp := t.TempDir()
	goldenOld := filepath.Join(tmp, "golden-old")
	goldenNew := filepath.Join(tmp, "golden-new")
	for dir, g := range map[string]*graph.Graph{goldenOld: base, goldenNew: edited} {
		vr, err := core.BuildVersionWith(version, struql.NewGraphSource(g), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := vr.Output.Publish(fsx.OS, dir, nil); err != nil {
			t.Fatal(err)
		}
	}
	oldTree := readTree(t, goldenOld)
	newTree := readTree(t, goldenNew)
	if sameTree(oldTree, newTree) {
		t.Fatal("fixture edits did not change any page")
	}

	nFaults := len(newTree) + 3
	for _, kind := range []string{"write", "shortwrite", "rename", "sync", "link", "mkdir"} {
		for fault := 1; fault <= nFaults; fault++ {
			cur := base.Copy()
			site, err := ivm.NewSite(version, struql.NewGraphSource(cur), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(tmp, "site")
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.RemoveAll(dir + ".prev"); err != nil {
				t.Fatal(err)
			}
			if err := site.Publish(fsx.OS, dir, nil); err != nil {
				t.Fatalf("%s/%d: clean initial publish: %v", kind, fault, err)
			}
			cur = edited.Copy()
			if err := site.Apply(struql.NewGraphSource(cur), delta); err != nil {
				t.Fatalf("%s/%d: apply: %v", kind, fault, err)
			}

			ffs := &faultfs.FS{Inner: fsx.OS}
			switch kind {
			case "write":
				ffs.FailWriteN = fault
			case "shortwrite":
				ffs.ShortWriteN = fault
			case "rename":
				ffs.FailRenameN = fault
			case "sync":
				ffs.FailSyncN = fault
			case "link":
				ffs.FailLinkN = fault
			case "mkdir":
				ffs.FailMkdirN = fault
			}
			perr := site.Publish(ffs, dir, nil)
			got := readTree(t, dir)
			switch {
			case perr == nil:
				// Link faults fall back to plain writes, so a "failed"
				// operation can still complete the patch.
				if !sameTree(got, newTree) {
					t.Fatalf("%s/%d: successful patch differs from full rebuild", kind, fault)
				}
			case kind == "sync":
				if !sameTree(got, newTree) && !sameTree(got, oldTree) {
					t.Fatalf("%s/%d: torn tree after sync fault", kind, fault)
				}
			default:
				if !sameTree(got, oldTree) {
					t.Fatalf("%s/%d: failed patch left a torn tree (%d files)", kind, fault, len(got))
				}
			}

			// Retry without faults: the retained dirty set must converge
			// the published tree on the new generation.
			if err := site.Publish(fsx.OS, dir, nil); err != nil {
				t.Fatalf("%s/%d: clean retry: %v", kind, fault, err)
			}
			if got := readTree(t, dir); !sameTree(got, newTree) {
				t.Fatalf("%s/%d: retry did not converge on the new generation", kind, fault)
			}
		}
	}
}

// TestSoakFailedPublishAccumulatesDirty covers the cross-apply dirty
// set: pages dirtied by an apply whose publish failed must still be
// written by the next successful publish, together with later edits.
func TestSoakFailedPublishAccumulatesDirty(t *testing.T) {
	spec := chaosSpecs()["homepage"]()
	version := &spec.Versions[0]
	med, err := mediator.New(spec.Sources...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := med.Warehouse(); err != nil {
		t.Fatal(err)
	}
	cur := med.DataGraph()
	site, err := ivm.NewSite(version, struql.NewGraphSource(cur), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "site")
	if err := site.Publish(fsx.OS, dir, nil); err != nil {
		t.Fatal(err)
	}

	r := newSoakRand(11)
	edit := func() {
		prev := cur.Copy()
		soakEdit(r, cur)
		if err := site.Apply(struql.NewGraphSource(cur), mediator.Diff(prev, cur)); err != nil {
			t.Fatal(err)
		}
	}
	edit()
	ffs := &faultfs.FS{Inner: fsx.OS, FailRenameN: 1}
	if err := site.Publish(ffs, dir, nil); err == nil {
		t.Fatal("faulted publish unexpectedly succeeded")
	}
	edit()
	if err := site.Publish(fsx.OS, dir, nil); err != nil {
		t.Fatal(err)
	}
	vr, err := core.BuildVersionWith(version, struql.NewGraphSource(cur), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(t.TempDir(), "golden")
	if err := vr.Output.Publish(fsx.OS, want, nil); err != nil {
		t.Fatal(err)
	}
	if !sameTree(readTree(t, dir), readTree(t, want)) {
		t.Error("published tree is missing pages dirtied before the failed publish")
	}
}
