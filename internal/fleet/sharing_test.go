package fleet

import (
	"context"
	"sync"
	"testing"

	"strudel/internal/graph"
	"strudel/internal/struql"
)

// replicaSources reads what every replica of the grid currently
// evaluates against, checking each reports the wanted generation.
func replicaSources(t *testing.T, f *Fleet, wantGen int64) []struql.Source {
	t.Helper()
	var out []struql.Source
	for s := 0; s < f.Shards(); s++ {
		for i := 0; i < f.ReplicasPerShard(); i++ {
			_, gen, err := f.Replica(s, i).EvalSource(context.Background(), func(_ context.Context, src struql.Source, _ int64) (string, error) {
				out = append(out, src)
				return "", nil
			})
			if err != nil {
				t.Fatalf("replica %d/%d: EvalSource: %v", s, i, err)
			}
			if gen != wantGen {
				t.Errorf("replica %d/%d at generation %d, want %d", s, i, gen, wantGen)
			}
		}
	}
	return out
}

// renderEverywhere renders every page of the reference site on every
// replica at once — four evaluators reading the generation's one data
// source concurrently — and compares each body with the reference.
func renderEverywhere(t *testing.T, f *Fleet, g *graph.Graph) {
	t.Helper()
	ref := newReference(t, f.cfg.Schema, g)
	pages := crawlRefs(t, ref)
	want := make([]string, len(pages))
	for i, pr := range pages {
		b, err := ref.RenderPage(pr)
		if err != nil {
			t.Fatalf("reference render: %v", err)
		}
		want[i] = b
	}
	var wg sync.WaitGroup
	for s := 0; s < f.Shards(); s++ {
		for i := 0; i < f.ReplicasPerShard(); i++ {
			wg.Add(1)
			go func(rep *Replica) {
				defer wg.Done()
				for k, pr := range pages {
					got, _, err := rep.Render(context.Background(), pr)
					if err != nil {
						t.Errorf("render %s: %v", EncodeRef(pr), err)
					} else if got != want[k] {
						t.Errorf("page %s differs from the reference", EncodeRef(pr))
					}
				}
			}(f.Replica(s, i))
		}
	}
	wg.Wait()
}

// TestGenerationIsOneSharedSnapshot pins what a generation's data is:
// New and SwapData hand the generation's snapshot to the fleet's one
// evaluator, and every replica reads that same *graph.Frozen — no
// per-replica copy. A source without a snapshot is shared as it is.
// Each generation is rendered on all replicas concurrently, so the race
// detector sees the shared reads (make loadgen-smoke runs this beside
// the reload drill).
func TestGenerationIsOneSharedSnapshot(t *testing.T) {
	s := buildSchema(t)
	gens := []*graph.Frozen{
		graphAtGen(33, 0).Freeze(),
		graphAtGen(33, 1).Freeze(),
		graphAtGen(33, 2).Freeze(),
	}
	f, err := New(Config{Schema: s, Shards: 2, Replicas: 2}, gens[0])
	if err != nil {
		t.Fatal(err)
	}
	for gen, want := range gens {
		if gen > 0 {
			f.SwapData(want, nil)
		}
		for i, src := range replicaSources(t, f, int64(gen)) {
			if got, ok := src.(*graph.Frozen); !ok || got != want {
				t.Errorf("generation %d: replica #%d reads %T %p, want the generation's snapshot %p", gen, i, src, src, want)
			}
		}
		renderEverywhere(t, f, graphAtGen(33, gen))
	}

	// A snapshot-less source is handed over unchanged and serves
	// byte-correct pages.
	g3 := graphAtGen(33, 3)
	plain := g3
	f.SwapData(plain, nil)
	for i, src := range replicaSources(t, f, 3) {
		if src != struql.Source(plain) {
			t.Errorf("generation 3: replica #%d reads %T, want the plain graph source as given", i, src)
		}
	}
	renderEverywhere(t, f, g3)
}
