package struql

import (
	"context"
	"errors"
	"testing"

	"strudel/internal/graph"
)

func cancelTestGraph(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		oid := graph.OID("o" + itoa(i))
		g.AddToCollection("C", oid)
		g.AddEdge(oid, "a", graph.NewInt(int64(i)))
	}
	return g
}

func TestEvalWhereCtxCancelled(t *testing.T) {
	g := cancelTestGraph(500)
	q := MustParse(`where C(x), x -> "a" -> v create P(x)`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := EvalWhereCtx(ctx, q.Blocks[0].Where, g, nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestEvalWhereCtxLiveCompletesIdentically(t *testing.T) {
	g := cancelTestGraph(500)
	q := MustParse(`where C(x), x -> "a" -> v create P(x)`)
	plain, err := EvalWhere(q.Blocks[0].Where, g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := EvalWhereCtx(context.Background(), q.Blocks[0].Where, g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Rows) != len(withCtx.Rows) || len(plain.Rows) != 500 {
		t.Fatalf("rows: plain %d, ctx %d, want 500", len(plain.Rows), len(withCtx.Rows))
	}
	// A live (non-background) context must also complete with equal rows,
	// exercising the batched rowMap path.
	live, liveCancel := context.WithCancel(context.Background())
	defer liveCancel()
	batched, err := EvalWhereCtx(live, q.Blocks[0].Where, g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(batched.Rows) != len(plain.Rows) {
		t.Fatalf("batched rows %d != plain rows %d", len(batched.Rows), len(plain.Rows))
	}
	for i := range plain.Rows {
		for j := range plain.Rows[i] {
			if plain.Rows[i][j] != batched.Rows[i][j] {
				t.Fatalf("row %d col %d differs: %v vs %v", i, j, plain.Rows[i][j], batched.Rows[i][j])
			}
		}
	}
}
