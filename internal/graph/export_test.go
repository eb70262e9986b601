package graph

import "reflect"

// FrozenFieldDiff names the fields in which two snapshots differ, for
// test failure messages.
func FrozenFieldDiff(a, b *Frozen) []string {
	fields := func(f *Frozen) []any {
		return []any{f.labels, f.labelOf, f.nodes, f.nodeOf, f.strs, f.urls, f.ints, f.floats, f.files,
			f.outOff, f.outLbl, f.outTo, f.lblOff, f.lblFrom, f.lblTo, f.inOff, f.inFrom, f.inLbl, f.inTid,
			f.collNames, f.collOf, f.collMembers, f.stats}
	}
	t := reflect.TypeOf(*a)
	fa, fb := fields(a), fields(b)
	if len(fa) != t.NumField() {
		panic("FrozenFieldDiff does not list every field of Frozen")
	}
	var out []string
	for i := range fa {
		if !reflect.DeepEqual(fa[i], fb[i]) {
			out = append(out, t.Field(i).Name)
		}
	}
	return out
}
