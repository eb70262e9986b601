package struql

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"strudel/internal/graph"
)

// snapshotOnly is a source whose snapshot is real and whose every Source
// method panics: the embedded interface is nil, so any promoted call
// dereferences it.
type snapshotOnly struct {
	Source
	f *graph.Frozen
}

func (s snapshotOnly) Frozen() *graph.Frozen { return s.f }

// TestOperatorsReadOnlySnapshot pins the one access-path family: every
// operator, the planner and the statistics read the evaluation's
// snapshot and never the Source accessors, under every configuration of
// the differential oracle's option matrix.
func TestOperatorsReadOnlySnapshot(t *testing.T) {
	for i := 0; i < 48; i++ {
		og := buildOracleGraph(uint64(i%4)*104729 + 11)
		src := snapshotOnly{f: SnapshotOf(og.indexed)}
		qsrc := genRichQuery(uint64(i)*7919 + 5)
		q := MustParse(qsrc)
		want, err := NaiveEval(q, og.plain)
		if err != nil {
			t.Fatalf("query %d: naive: %v\n%s", i, err, qsrc)
		}
		for c := 0; c < oracleConfigs; c++ {
			opts, _ := oracleOptions(c, og)
			got, err := Eval(q, src, opts)
			if err != nil {
				t.Fatalf("query %d config %d: Eval: %v\n%s", i, c, err, qsrc)
			}
			if got.Graph.Dump() != want.Graph.Dump() {
				t.Fatalf("query %d config %d: Eval over the snapshot diverged from naive\n%s", i, c, qsrc)
			}
			if _, err := EvalWhereCtx(context.Background(), q.Blocks[0].Where, src, nil, opts); err != nil {
				t.Fatalf("query %d config %d: EvalWhereCtx: %v\n%s", i, c, err, qsrc)
			}
			if _, err := Explain(q, src, opts); err != nil {
				t.Fatalf("query %d config %d: Explain: %v\n%s", i, c, err, qsrc)
			}
		}
	}
}

// TestCopiedSnapshotKeepsEmptyCollections pins the copy a snapshot-less
// source is read through: it holds every node, edge and collection of
// the source, a declared but empty collection included.
func TestCopiedSnapshotKeepsEmptyCollections(t *testing.T) {
	g := genGraph(3)
	g.DeclareCollection("Empty")
	f := freezeCopy(NewGraphSource(g))
	if got, want := f.CollectionNames(), g.CollectionNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("copied collections = %v, want %v", got, want)
	}
	if f.NumNodes() != g.NumNodes() || f.NumEdges() != g.NumEdges() {
		t.Errorf("copy has %d nodes %d edges, source %d nodes %d edges",
			f.NumNodes(), f.NumEdges(), g.NumNodes(), g.NumEdges())
	}
}

// TestNoSnapshotIsCapacityError pins what a source without a snapshot
// of its own past the id capacity gets: a typed error, not a scan.
func TestNoSnapshotIsCapacityError(t *testing.T) {
	src := snapshotOnly{Source: NewGraphSource(graph.New())} // Frozen() = nil
	q := MustParse(`where C(x) create P(x)`)
	var ce *CapacityError
	if _, err := Eval(q, src, nil); !errors.As(err, &ce) {
		t.Errorf("Eval err = %v, want *CapacityError", err)
	}
	if _, err := EvalWhere(q.Blocks[0].Where, src, nil, nil); !errors.As(err, &ce) {
		t.Errorf("EvalWhere err = %v, want *CapacityError", err)
	}
	if _, err := Explain(q, src, nil); !errors.As(err, &ce) {
		t.Errorf("Explain err = %v, want *CapacityError", err)
	}
}
