package struql

import (
	"errors"
	"fmt"
	"testing"

	"strudel/internal/graph"
)

func TestChunkBounds(t *testing.T) {
	cases := []struct {
		n, workers int
	}{
		{0, 4}, {1, 4}, {3, 4}, {4, 4}, {10, 3}, {64, 8}, {65, 8}, {100, 7},
	}
	for _, c := range cases {
		bounds := chunkBounds(c.n, c.workers)
		if len(bounds) > c.workers {
			t.Errorf("chunkBounds(%d, %d): %d chunks > %d workers", c.n, c.workers, len(bounds), c.workers)
		}
		// Chunks must tile [0, n) contiguously in order.
		next := 0
		for _, b := range bounds {
			if b[0] != next || b[1] < b[0] {
				t.Fatalf("chunkBounds(%d, %d) = %v: not a contiguous tiling", c.n, c.workers, bounds)
			}
			next = b[1]
		}
		if next != c.n {
			t.Errorf("chunkBounds(%d, %d) covers [0, %d), want [0, %d)", c.n, c.workers, next, c.n)
		}
		// Near-equal sizes: max and min differ by at most one.
		min, max := c.n, 0
		for _, b := range bounds {
			if s := b[1] - b[0]; s < min {
				min = s
			} else if s > max {
				max = s
			}
		}
		if len(bounds) > 0 && max-min > 1 {
			t.Errorf("chunkBounds(%d, %d) = %v: chunk sizes differ by more than one", c.n, c.workers, bounds)
		}
	}
}

func TestRowMapOrderAndErrors(t *testing.T) {
	rows := make([][]graph.Value, 200)
	for i := range rows {
		rows[i] = []graph.Value{graph.NewInt(int64(i))}
	}
	ctx := &evalCtx{par: 8}
	out, err := ctx.rowMap(rows, func(_ int, chunk [][]graph.Value) ([][]graph.Value, error) {
		res := make([][]graph.Value, 0, len(chunk))
		for _, r := range chunk {
			if r[0].Int()%3 == 0 { // filter, as the per-row operators do
				continue
			}
			res = append(res, r)
		}
		return res, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range out {
		for r[0].Int() >= int64(want) && want%3 == 0 {
			want++
		}
		if r[0].Int() != int64(want) {
			t.Fatalf("output out of input order: got %d, want %d", r[0].Int(), want)
		}
		want++
	}
	if len(out) != 133 {
		t.Errorf("filtered rows = %d, want 133", len(out))
	}

	// The reported error is the first failing chunk in input order, no
	// matter which goroutine finishes first.
	for trial := 0; trial < 20; trial++ {
		_, err := ctx.rowMap(rows, func(w int, chunk [][]graph.Value) ([][]graph.Value, error) {
			if w >= 2 {
				return nil, fmt.Errorf("chunk %d failed", w)
			}
			return chunk, nil
		})
		if err == nil || err.Error() != "chunk 2 failed" {
			t.Fatalf("trial %d: err = %v, want chunk 2 failed", trial, err)
		}
	}
}

func TestRowMapSequentialFastPath(t *testing.T) {
	rows := make([][]graph.Value, 10) // below minParallelRows
	ctx := &evalCtx{par: 8}
	calls := 0
	if _, err := ctx.rowMap(rows, func(w int, chunk [][]graph.Value) ([][]graph.Value, error) {
		calls++
		if w != 0 || len(chunk) != len(rows) {
			t.Errorf("fast path got worker %d, %d rows", w, len(chunk))
		}
		return chunk, nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("fast path made %d calls, want 1", calls)
	}
	wantErr := errors.New("boom")
	ctx = &evalCtx{par: 1}
	if _, err := ctx.rowMap(make([][]graph.Value, 100), func(int, [][]graph.Value) ([][]graph.Value, error) {
		return nil, wantErr
	}); !errors.Is(err, wantErr) {
		t.Errorf("sequential error = %v, want %v", err, wantErr)
	}
}

// TestEvalParallelDeterminism runs a query that exercises every
// parallelized operator — edges, arc variables, path expressions,
// comparisons, negation, dedup — over a relation large enough to cross
// minParallelRows, and requires the eight-worker result graph to dump
// byte-identically to the sequential one.
func TestEvalParallelDeterminism(t *testing.T) {
	g := graph.New()
	for i := 0; i < 300; i++ {
		oid := graph.OID(fmt.Sprintf("p%03d", i))
		g.AddToCollection("Pubs", oid)
		g.AddEdge(oid, "title", graph.NewString(fmt.Sprintf("Paper %d", i)))
		g.AddEdge(oid, "year", graph.NewInt(int64(1990+i%10)))
		if i%4 != 0 {
			g.AddEdge(oid, "cat", graph.NewString(fmt.Sprintf("area%d", i%5)))
		}
		if i > 0 {
			g.AddEdge(graph.OID(fmt.Sprintf("p%03d", i-1)), "next", graph.NewNode(oid))
		}
	}
	q := MustParse(`
where Pubs(x), x -> "year" -> y, y > 1993, not(x -> "cat" -> "area0"),
      x -> "next"* -> z, z -> l -> v, isAtom(v)
create N(x, y)
link N(x, y) -> l -> v, N(x, y) -> "year" -> y
`)
	src := g
	seq, err := Eval(q, src, &Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Eval(q, src, &Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Graph.Dump() != par.Graph.Dump() {
		t.Error("result graphs differ between Parallelism 1 and 8")
	}
	if seq.Rows != par.Rows {
		t.Errorf("row counts differ: sequential %d, parallel %d", seq.Rows, par.Rows)
	}
}
