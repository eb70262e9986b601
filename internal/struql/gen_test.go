package struql

import (
	"runtime"
	"testing"
	"time"

	"strudel/internal/graph"
	"strudel/internal/qgen"
)

// This file is the randomized differential oracle: seeded generators for
// data graphs and queries, and tests asserting the optimized evaluator
// (cost-based planner, indexes, caches, parallelism, guards) and the
// naive reference evaluator agree byte-for-byte on every generated
// (graph, query) pair. Seeds are plain integers so any divergence report
// is reproducible with `go test -run TestDifferentialOracle`.
//
// The generators themselves live in internal/qgen (extracted so the
// HTTP query oracle and load drivers share the exact same corpus);
// these aliases keep the historical names the tests below reference.

func genGraph(seed uint64) *graph.Graph { return qgen.Graph(seed) }

func genRichQuery(seed uint64) string { return qgen.RichQuery(seed) }

// oracleGraph bundles one generated graph with the sources and warm
// statistics the option matrix cycles through.
type oracleGraph struct {
	seed    uint64
	plain   Source
	indexed Source
	warm    *Stats
}

func buildOracleGraph(seed uint64) *oracleGraph {
	g := genGraph(seed)
	ix := g.Freeze()
	return &oracleGraph{seed: seed, plain: g, indexed: ix, warm: CollectStats(ix)}
}

// genericOnly hides whatever a source offers beyond the Source
// interface — the snapshot's indexes, the map graph's type — because
// embedding the interface promotes only its own methods. It is the
// snapshot-less source: the
// evaluator reads it through a snapshot frozen from a copy of it, so
// wrapping a source in it puts that copy path under the oracles.
type genericOnly struct{ Source }

// oracleConfigs is the number of distinct (options, source) pairs
// oracleOptions cycles through.
const oracleConfigs = 16

// oracleOptions maps a configuration index to evaluation options and a
// source: even indexes evaluate against the repository's snapshot, odd
// against the plain map graph (frozen by each evaluation); the option
// half cycles parallelism, planner toggles, a resolved snapshot and
// the snapshot-less genericOnly wrapper, warm statistics, and generous
// resource guards that must never trip.
func oracleOptions(i int, og *oracleGraph) (*Options, Source) {
	src := og.indexed
	if i%2 == 1 {
		src = og.plain
	}
	switch (i / 2) % 8 {
	case 0:
		return nil, src
	case 1:
		// The resolved snapshot: what a serving fleet hands its
		// replicas.
		fz, err := Snapshot(src)
		if err != nil {
			panic(err)
		}
		src = fz
		return &Options{Parallelism: 1}, src
	case 2:
		return &Options{Parallelism: 2, NoStats: true}, src
	case 3:
		return &Options{Parallelism: runtime.NumCPU(), NoReorder: true}, src
	case 4:
		return &Options{NoStats: true, NoReorder: true}, src
	case 5:
		return nil, genericOnly{src}
	case 6:
		return &Options{Parallelism: 2, NoStats: true}, genericOnly{src}
	default:
		return &Options{
			Parallelism:  2,
			Stats:        og.warm,
			MaxRows:      4 << 20,
			MaxNFAStates: 1 << 20,
			Deadline:     time.Now().Add(time.Hour),
		}, src
	}
}

// oracleQuerySeed spreads pair indexes across the seed space.
func oracleQuerySeed(i int) uint64 { return uint64(i)*1000003 + 7 }

// TestDifferentialOracle checks optimized ≡ naive over oraclePairs
// seeded (graph, query) pairs, cycling the option/source matrix per
// pair. oraclePairs is 10000 in the plain suite and a smoke subset
// under the race detector (see oracle_scale_test.go).
func TestDifferentialOracle(t *testing.T) {
	pairs := oraclePairs
	if testing.Short() {
		pairs = pairs / 20
		if pairs < 100 {
			pairs = 100
		}
	}
	const nGraphs = 48
	graphs := make([]*oracleGraph, nGraphs)
	fails := 0
	for i := 0; i < pairs; i++ {
		gi := i % nGraphs
		if graphs[gi] == nil {
			graphs[gi] = buildOracleGraph(uint64(gi)*7919 + 3)
		}
		og := graphs[gi]
		qsrc := genRichQuery(oracleQuerySeed(i))
		q, err := Parse(qsrc)
		if err != nil {
			t.Fatalf("pair %d: generator produced an invalid query: %v\n%s", i, err, qsrc)
		}
		want, err := NaiveEval(q, og.plain)
		if err != nil {
			t.Fatalf("pair %d (graph seed %d): naive: %v\n%s", i, og.seed, err, qsrc)
		}
		opts, src := oracleOptions(i, og)
		got, err := Eval(q, src, opts)
		if err != nil {
			t.Fatalf("pair %d (graph seed %d, config %d): optimized: %v\n%s", i, og.seed, i%oracleConfigs, err, qsrc)
		}
		if got.Rows != want.Rows || got.Graph.Dump() != want.Graph.Dump() {
			t.Errorf("pair %d (graph seed %d, config %d): optimized and naive diverged (rows %d vs %d)\nquery:\n%s",
				i, og.seed, i%oracleConfigs, got.Rows, want.Rows, qsrc)
			if fails++; fails >= 3 {
				t.Fatal("stopping after 3 divergences")
			}
		}
	}
	t.Logf("differential oracle: %d (graph, query) pairs agreed", pairs)
}

// TestDifferentialOracleFullMatrix runs a smaller pair set through EVERY
// configuration, pinning plan independence: one naive reference, twelve
// optimized runs, all byte-identical.
func TestDifferentialOracleFullMatrix(t *testing.T) {
	pairs := 96
	if testing.Short() {
		pairs = 24
	}
	for i := 0; i < pairs; i++ {
		og := buildOracleGraph(uint64(i%8)*104729 + 11)
		qsrc := genRichQuery(uint64(i)*9176553 + 1234567)
		q, err := Parse(qsrc)
		if err != nil {
			t.Fatalf("pair %d: generator produced an invalid query: %v\n%s", i, err, qsrc)
		}
		want, err := NaiveEval(q, og.plain)
		if err != nil {
			t.Fatalf("pair %d: naive: %v\n%s", i, err, qsrc)
		}
		wantDump := want.Graph.Dump()
		for c := 0; c < oracleConfigs; c++ {
			opts, src := oracleOptions(c, og)
			got, err := Eval(q, src, opts)
			if err != nil {
				t.Fatalf("pair %d config %d: optimized: %v\n%s", i, c, err, qsrc)
			}
			if got.Rows != want.Rows || got.Graph.Dump() != wantDump {
				t.Fatalf("pair %d config %d: diverged from naive (rows %d vs %d)\nquery:\n%s",
					i, c, got.Rows, want.Rows, qsrc)
			}
		}
	}
}

// FuzzDifferential feeds arbitrary query text to both evaluators over a
// fixed generated graph. A guarded first-ready probe bounds the work a
// fuzzer-crafted query may demand before the unguarded naive evaluator
// runs; queries the probe rejects (parse errors, guard trips, runtime
// construction errors) are out of the oracle's scope and skipped.
func FuzzDifferential(f *testing.F) {
	f.Add(`where Items(x) create Out(x)`)
	f.Add(`where Items(x), x -> "next"* -> y create Out(x) link Out(x) -> "r" -> y`)
	f.Add(`where Items(x), not(x -> "extra" -> z) create Out(x) collect R(Out(x))`)
	f.Add(`where Items(x), x -> "year" -> y aggregate max(y) as m by x create A(x) link A(x) -> "m" -> m`)
	f.Add(`where Items(x), x -> l -> v, isAtom(v) create Out(x) link Out(x) -> l -> v`)
	for seed := uint64(1); seed <= 5; seed++ {
		f.Add(genRichQuery(seed))
	}
	og := buildOracleGraph(42)
	f.Fuzz(func(t *testing.T, qsrc string) {
		if len(qsrc) > 300 {
			return
		}
		q, err := Parse(qsrc)
		if err != nil {
			return
		}
		probe := &Options{
			Parallelism:  1,
			NoReorder:    true, // first-ready textual order = the naive evaluator's order
			MaxRows:      50000,
			MaxNFAStates: 20000,
			Deadline:     time.Now().Add(2 * time.Second),
		}
		if _, err := Eval(q, og.indexed, probe); err != nil {
			return
		}
		want, err := NaiveEval(q, og.plain)
		if err != nil {
			t.Fatalf("naive errored where guarded optimized succeeded: %v\n%s", err, qsrc)
		}
		wantDump := want.Graph.Dump()
		for c := 0; c < 4; c++ {
			opts, src := oracleOptions(c, og)
			got, err := Eval(q, src, opts)
			if err != nil {
				t.Fatalf("config %d: optimized: %v\n%s", c, err, qsrc)
			}
			if got.Rows != want.Rows || got.Graph.Dump() != wantDump {
				t.Fatalf("config %d: optimized and naive diverged (rows %d vs %d)\nquery:\n%s",
					c, got.Rows, want.Rows, qsrc)
			}
		}
	})
}
