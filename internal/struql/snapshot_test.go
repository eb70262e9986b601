package struql

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"strudel/internal/graph"
)

// countingSource is a source without a snapshot of its own that counts
// the reads made through it. An evaluation copies it once into a
// snapshot (one Nodes call, one Out call per node); any read beyond
// that copy is an operator reading the source instead of the snapshot.
type countingSource struct {
	Source
	nodes, outs atomic.Int64
}

func (s *countingSource) Nodes() []graph.OID {
	s.nodes.Add(1)
	return s.Source.Nodes()
}

func (s *countingSource) Out(oid graph.OID) []graph.Edge {
	s.outs.Add(1)
	return s.Source.Out(oid)
}

// readOnce fails the test unless the reads since the last call are one
// copy of src.
func (s *countingSource) readOnce(t *testing.T, what string) {
	t.Helper()
	if n, o := s.nodes.Swap(0), s.outs.Swap(0); n != 1 || o != int64(s.NumNodes()) {
		t.Fatalf("%s read the source %d times whole and %d nodes' edges, want one copy of %d nodes",
			what, n, o, s.NumNodes())
	}
}

// TestOperatorsReadOnlySnapshot pins the one access-path family: every
// operator, the planner and the statistics read the evaluation's
// snapshot and never the Source accessors, under every configuration of
// the differential oracle's option matrix.
func TestOperatorsReadOnlySnapshot(t *testing.T) {
	for i := 0; i < 48; i++ {
		og := buildOracleGraph(uint64(i%4)*104729 + 11)
		src := &countingSource{Source: genericOnly{og.plain}}
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
			src.readOnce(t, "Eval")
			if got.Graph.Dump() != want.Graph.Dump() {
				t.Fatalf("query %d config %d: Eval over the snapshot diverged from naive\n%s", i, c, qsrc)
			}
			if _, err := EvalWhereCtx(context.Background(), q.Blocks[0].Where, src, nil, opts); err != nil {
				t.Fatalf("query %d config %d: EvalWhereCtx: %v\n%s", i, c, err, qsrc)
			}
			src.readOnce(t, "EvalWhereCtx")
			if _, err := Explain(q, src, opts); err != nil {
				t.Fatalf("query %d config %d: Explain: %v\n%s", i, c, err, qsrc)
			}
			src.readOnce(t, "Explain")
		}
	}
}

// TestCopiedSnapshotKeepsEmptyCollections pins the copy a snapshot-less
// source is read through: it holds every node, edge and collection of
// the source, a declared but empty collection included.
func TestCopiedSnapshotKeepsEmptyCollections(t *testing.T) {
	g := genGraph(3)
	g.DeclareCollection("Empty")
	f, err := freezeCopy(g)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := f.CollectionNames(), g.CollectionNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("copied collections = %v, want %v", got, want)
	}
	if f.NumNodes() != g.NumNodes() || f.NumEdges() != g.NumEdges() {
		t.Errorf("copy has %d nodes %d edges, source %d nodes %d edges",
			f.NumNodes(), f.NumEdges(), g.NumNodes(), g.NumEdges())
	}
}

// TestNoSnapshotIsCapacityError pins what a graph past the id capacity
// gets — here the nil snapshot Freeze returns for one: a typed error,
// not a scan or a nil dereference.
func TestNoSnapshotIsCapacityError(t *testing.T) {
	var src *graph.Frozen
	q := MustParse(`where C(x) create P(x)`)
	var ce *graph.CapacityError
	if _, err := Eval(q, src, nil); !errors.As(err, &ce) {
		t.Errorf("Eval err = %v, want *graph.CapacityError", err)
	}
	if _, err := EvalWhere(q.Blocks[0].Where, src, nil, nil); !errors.As(err, &ce) {
		t.Errorf("EvalWhere err = %v, want *graph.CapacityError", err)
	}
	if _, err := Explain(q, src, nil); !errors.As(err, &ce) {
		t.Errorf("Explain err = %v, want *graph.CapacityError", err)
	}
	if _, err := Snapshot(src); !errors.As(err, &ce) {
		t.Errorf("Snapshot err = %v, want *graph.CapacityError", err)
	}
}
