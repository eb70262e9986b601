package struql

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"strudel/internal/graph"
	"strudel/internal/obs"
)

// allocBytesPerRun returns the mean heap bytes one call of f allocates,
// after one warm-up call, on one P so no other goroutine's allocations
// land in the window (testing.AllocsPerRun's recipe, counting bytes).
func allocBytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestEvalWhereAllocatesWhatItReturns pins the cost of a click-time
// query: a single-label condition from a one-row seed over a snapshot,
// which returns one row. Bytes per call, go1.24 linux/amd64:
//
//	                     cold stats   shared Stats (the serving path)
//	parent (PR 20)           21,973         21,426
//	right-sized slabs etc     4,048          2,168
//
// The parent paid a fixed 16 KiB first row slab, an output graph and a
// Skolem environment that only construction reads, a plan string, and
// (even with shared statistics) a fresh plan per call. What is left is
// the 1 KiB first slab (8 rows of 2 values), the result, the evaluation
// context, and — cold — statistics and a plan.
func TestEvalWhereAllocatesWhatItReturns(t *testing.T) {
	fz := propertyGraph(64).Freeze()
	conds, err := ParseWhere(`x -> "year" -> y`)
	if err != nil {
		t.Fatal(err)
	}
	seed := &Bindings{Vars: []string{"x"}, Rows: [][]graph.Value{{graph.NewNode("i07")}}}
	warm := &Options{Stats: CollectStats(fz)}
	for _, c := range []struct {
		name  string
		opts  *Options
		limit float64
	}{
		{"cold stats", nil, 5 << 10},
		{"shared Stats", warm, 3 << 10},
	} {
		var rows int
		got := allocBytesPerRun(200, func() {
			b, err := EvalWhere(conds, fz, seed, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			rows = len(b.Rows)
		})
		if rows != 1 {
			t.Fatalf("%s: %d rows, want 1", c.name, rows)
		}
		t.Logf("%s: %.0f bytes per EvalWhere", c.name, got)
		if got > c.limit {
			t.Errorf("%s: EvalWhere allocates %.0f bytes for one row, want under %.0f", c.name, got, c.limit)
		}
	}
}

// TestSharedStatsPlansOnce pins plan sharing: EvalWhere calls that
// share one Options.Stats miss the plan cache once per (condition list,
// bound-variable set) and hit after that, and their rows equal a cold
// evaluation's.
func TestSharedStatsPlansOnce(t *testing.T) {
	fz := propertyGraph(30).Freeze()
	conds, err := ParseWhere(`Items(x), x -> "extra" -> e, x -> "year" -> y, y > 1992`)
	if err != nil {
		t.Fatal(err)
	}
	m := &obs.EvalMetrics{}
	opts := &Options{Stats: CollectStats(fz), Metrics: m}
	seeds := []*Bindings{nil}
	for _, x := range []graph.OID{"i00", "i03", "i04", "i27"} {
		seeds = append(seeds, &Bindings{Vars: []string{"x"}, Rows: [][]graph.Value{{graph.NewNode(x)}}})
	}
	const rounds = 3
	for r := 0; r < rounds; r++ {
		for i, seed := range seeds {
			got, err := EvalWhere(conds, fz, seed, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := EvalWhere(conds, fz, seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d seed %d: shared-Stats rows %v, cold rows %v", r, i, got.Rows, want.Rows)
			}
		}
	}
	// Two bound-variable sets: none (the nil seed) and {x}.
	evals := int64(rounds * len(seeds))
	if miss, hit := m.PlanMisses.Load(), m.PlanHits.Load(); miss != 2 || hit != evals-2 {
		t.Errorf("plan cache: %d misses, %d hits over %d evaluations; want 2 misses, %d hits", miss, hit, evals, evals-2)
	}
	if n := m.StatsBuilds.Load(); n != 0 {
		t.Errorf("shared Stats: %d statistics builds, want 0", n)
	}
}

// TestSharedStatsConcurrent evaluates from several goroutines under one
// Stats, as concurrent page computations of one serving generation do:
// the shared statistics and plan memo must stay race-free and every
// result equal to a cold evaluation's.
func TestSharedStatsConcurrent(t *testing.T) {
	fz := propertyGraph(40).Freeze()
	conds, err := ParseWhere(`Items(x), x -> "next" -> z, z -> "year" -> y, not(z -> "extra" -> e)`)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Bindings, 8)
	seeds := make([]*Bindings, 8)
	for i := range seeds {
		seeds[i] = &Bindings{Vars: []string{"x"}, Rows: [][]graph.Value{{graph.NewNode(graph.OID(fmt.Sprintf("i%02d", i*5)))}}}
		if want[i], err = EvalWhere(conds, fz, seeds[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	opts := &Options{Stats: CollectStats(fz)}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				i := (w + r) % len(seeds)
				got, err := EvalWhere(conds, fz, seeds[i], opts)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("worker %d seed %d: rows %v, want %v", w, i, got.Rows, want[i].Rows)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSharedStatsKeysByConditionList pins the plan key: two condition
// lists that share their first condition and their length — what a site
// schema makes of two sibling nested blocks, each prefixed with their
// parent's conditions — are two planning problems, not one.
func TestSharedStatsKeysByConditionList(t *testing.T) {
	fz := propertyGraph(30).Freeze()
	parent, err := ParseWhere(`Items(x)`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ParseWhere(`x -> "extra" -> e`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseWhere(`x -> "kind" -> k, k = "b"`)
	if err != nil {
		t.Fatal(err)
	}
	siblingA := append(append([]Cond(nil), parent...), a...)
	siblingB := append(append([]Cond(nil), parent...), b[0])
	siblingB2 := append(append([]Cond(nil), parent...), b...)
	m := &obs.EvalMetrics{}
	opts := &Options{Stats: CollectStats(fz), Metrics: m}
	for _, conds := range [][]Cond{siblingA, siblingB, siblingB2} {
		got, err := EvalWhere(conds, fz, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EvalWhere(conds, fz, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: shared-Stats rows %v, cold rows %v", conds, got.Rows, want.Rows)
		}
	}
	if miss, hit := m.PlanMisses.Load(), m.PlanHits.Load(); miss != 3 || hit != 0 {
		t.Errorf("plan cache: %d misses, %d hits; want 3 misses, 0 hits", miss, hit)
	}
}

// TestSharedStatsNoReorderStaysTextual: a NoReorder evaluation under a
// Stats whose cache already holds the cost-ordered plan of the same
// condition list plans its own first-ready textual order.
func TestSharedStatsNoReorderStaysTextual(t *testing.T) {
	fz := propertyGraph(30).Freeze()
	q := MustParse(`where Items(x), x -> "extra" -> e create N(x)`)
	stats := CollectStats(fz)
	cost := &obs.EvalMetrics{}
	if _, err := EvalWhere(q.Blocks[0].Where, fz, nil, &Options{Stats: stats, Metrics: cost}); err != nil {
		t.Fatal(err)
	}
	if cost.ReorderedConds.Load() == 0 {
		t.Fatal("cost-based plan did not move the selective label scan ahead of the collection scan")
	}
	textual := &obs.EvalMetrics{}
	for i := 0; i < 2; i++ {
		if _, err := EvalWhere(q.Blocks[0].Where, fz, nil, &Options{Stats: stats, NoReorder: true, Metrics: textual}); err != nil {
			t.Fatal(err)
		}
	}
	if n := textual.ReorderedConds.Load(); n != 0 {
		t.Errorf("NoReorder evaluation ran a cost-ordered plan (%d conditions moved)", n)
	}
	if miss, hit := textual.PlanMisses.Load(), textual.PlanHits.Load(); miss != 1 || hit != 1 {
		t.Errorf("NoReorder plan cache: %d misses, %d hits; want 1, 1", miss, hit)
	}
	got, err := Explain(q, fz, &Options{Stats: stats, NoReorder: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Explain(q, fz, &Options{NoReorder: true})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("NoReorder EXPLAIN under shared Stats:\n%s\nwant:\n%s", got, want)
	}
}
