package dynamic

import (
	"strings"

	"strudel/internal/graph"
	"strudel/internal/mediator"
	"strudel/internal/struql"
)

// Dependency keys:
//
//	label:L     the conjunction reads edges labeled L
//	coll:C      the conjunction reads collection C's extent
//	edges-of:C  the conjunction reads arbitrary edges, but only those
//	            leaving members of collection C (an arc variable whose
//	            source is collection-constrained)
//	*           the conjunction reads arbitrary edges anywhere
//
// The refinement from * to edges-of:C is what keeps the ubiquitous
// attribute-copy idiom — where C(x), x -> l -> v — from invalidating on
// every data change.

// condDeps collects the dependency keys of a conjunction. varColls maps
// variables to the collections that constrain them in enclosing
// conjunctions.
func condDeps(conds []struql.Cond, set map[string]bool, varColls map[string][]string) {
	// First pass: collection constraints in this conjunction extend the
	// variable → collections map.
	local := map[string][]string{}
	for v, cs := range varColls {
		local[v] = cs
	}
	for _, c := range conds {
		if mc, ok := c.(*struql.MemberCond); ok {
			local[mc.Var] = append(local[mc.Var], mc.Coll)
		}
	}
	for _, c := range conds {
		switch c := c.(type) {
		case *struql.MemberCond:
			set["coll:"+c.Coll] = true
		case *struql.EdgeCond:
			if c.From.IsVar() {
				if colls := local[c.From.Var]; len(colls) > 0 {
					for _, coll := range colls {
						set["edges-of:"+coll] = true
					}
					continue
				}
			}
			set["*"] = true // arc variable over an unconstrained source
		case *struql.PathCond:
			pathDeps(c.Path, set)
		case *struql.NotCond:
			condDeps(c.Conds, set, local)
		}
	}
}

func pathDeps(p *struql.PathExpr, set map[string]bool) {
	switch p.Op {
	case struql.PLabel:
		set["label:"+p.Label] = true
	case struql.PAny, struql.PRegex:
		set["*"] = true
	default:
		for _, k := range p.Kids {
			pathDeps(k, set)
		}
	}
}

// BlockDeps returns the dependency keys of one query block including its
// nested blocks, with collection constraints flowing inward.
func BlockDeps(b *struql.Block) map[string]bool {
	set := map[string]bool{}
	var walk func(*struql.Block, map[string]bool, map[string][]string)
	walk = func(b *struql.Block, set map[string]bool, varColls map[string][]string) {
		condDeps(b.Where, set, varColls)
		inner := map[string][]string{}
		for v, cs := range varColls {
			inner[v] = cs
		}
		for _, c := range b.Where {
			if mc, ok := c.(*struql.MemberCond); ok {
				inner[mc.Var] = append(inner[mc.Var], mc.Coll)
			}
		}
		for _, n := range b.Nested {
			walk(n, set, inner)
		}
	}
	walk(b, set, map[string][]string{})
	return set
}

// AffectedBy reports whether a dependency set intersects a delta. For
// edges-of:C dependencies, each changed edge's source is tested for
// membership in C against the generation's snapshot — this is what
// distinguishes "a new patent attribute" from "a new publication
// attribute". The batch-side incremental maintainer (package ivm)
// shares this test.
func AffectedBy(deps map[string]bool, d *mediator.Delta, data *graph.Frozen) bool {
	if deps["*"] {
		return !d.Empty()
	}
	edgeHit := func(e graph.Edge) bool {
		if deps["label:"+e.Label] {
			return true
		}
		for dep := range deps {
			if coll, ok := strings.CutPrefix(dep, "edges-of:"); ok {
				if data.InCollection(coll, e.From) {
					return true
				}
			}
		}
		return false
	}
	for _, e := range d.AddedEdges {
		if edgeHit(e) {
			return true
		}
	}
	for _, e := range d.RemovedEdges {
		if edgeHit(e) {
			return true
		}
	}
	memberHit := func(ms []mediator.Membership) bool {
		for _, m := range ms {
			if deps["coll:"+m.Coll] || deps["edges-of:"+m.Coll] {
				return true
			}
		}
		return false
	}
	return memberHit(d.AddedMembers) || memberHit(d.RemovedMembers)
}
