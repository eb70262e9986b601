package struql

import (
	"runtime"
	"sync"

	"strudel/internal/graph"
	"strudel/internal/obs"
)

// minParallelRows is the relation size below which the per-row operators
// stay sequential: goroutine fan-out costs more than it saves on tiny
// inputs, and small relations dominate nested not(...) sub-evaluations.
const minParallelRows = 64

// parallelism resolves the configured worker count: 0 means one worker
// per available CPU, 1 the sequential path, n>1 exactly n workers.
func (o *Options) parallelism() int {
	if o == nil || o.Parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Parallelism < 1 {
		return 1
	}
	return o.Parallelism
}

// chunkBounds partitions n items into at most workers contiguous chunks of
// near-equal size, returned as [lo,hi) index pairs in input order.
func chunkBounds(n, workers int) [][2]int {
	if workers > n {
		workers = n
	}
	bounds := make([][2]int, 0, workers)
	lo := 0
	for w := 0; w < workers; w++ {
		size := (n - lo) / (workers - w)
		bounds = append(bounds, [2]int{lo, lo + size})
		lo += size
	}
	return bounds
}

// cancelCheckRows bounds how many rows one operator processes between
// context polls when a request context is attached: it is the worst-case
// cancellation latency in rows, small enough that even a slow (e.g.
// fault-injected) source stops within a few dozen accesses.
const cancelCheckRows = 64

// rowMap applies fn to contiguous chunks of rows on a worker pool and
// concatenates the chunk outputs in input order, which keeps every
// operator's output deterministic: each chunk preserves its rows' relative
// order, and chunks are reassembled exactly as partitioned. fn receives
// the chunk index (so callers can keep per-worker state) and must not
// touch rows outside its chunk. With one worker (or a small relation) it
// degenerates to a single in-place call.
//
// When the evaluation carries a request context, each worker processes its
// chunk in batches of cancelCheckRows rows, polling the context between
// batches; batch outputs concatenate in order, so cancellation support
// never changes the result.
func (ctx *evalCtx) rowMap(rows [][]graph.Value,
	fn func(worker int, chunk [][]graph.Value) ([][]graph.Value, error)) ([][]graph.Value, error) {
	if ctx.polled() {
		inner := fn
		fn = func(worker int, chunk [][]graph.Value) ([][]graph.Value, error) {
			var out [][]graph.Value
			for lo := 0; lo < len(chunk) || lo == 0; lo += cancelCheckRows {
				if err := ctx.cancelled(); err != nil {
					return nil, err
				}
				hi := min(lo+cancelCheckRows, len(chunk))
				part, err := inner(worker, chunk[lo:hi])
				if err != nil {
					return nil, err
				}
				if lo == 0 && hi == len(chunk) {
					return part, nil
				}
				out = append(out, part...)
			}
			return out, nil
		}
	}
	if ctx.par <= 1 || len(rows) < minParallelRows {
		ctx.metrics.RecordRowMap(1)
		return fn(0, rows)
	}
	bounds := chunkBounds(len(rows), ctx.par)
	ctx.metrics.RecordRowMap(len(bounds))
	outs := make([][][]graph.Value, len(bounds))
	errs := make([]error, len(bounds))
	var wg sync.WaitGroup
	for i, b := range bounds {
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			outs[i], errs[i] = fn(i, rows[lo:hi])
		}(i, b[0], b[1])
	}
	wg.Wait()
	// The first failing chunk in input order decides the error, so error
	// reporting does not depend on goroutine scheduling.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	merged := make([][]graph.Value, 0, total)
	for _, o := range outs {
		merged = append(merged, o...)
	}
	return merged, nil
}

// matcherCache shares compiled path matchers — each holding one NFA and
// its reachability memo — across blocks and across worker goroutines.
// Matchers are keyed by the path expression's textual form, so the same
// expression written in two blocks compiles its NFA once.
type matcherCache struct {
	mu sync.Mutex
	m  map[string]*pathMatcher
}

func newMatcherCache() *matcherCache { return &matcherCache{m: make(map[string]*pathMatcher)} }

func (c *matcherCache) get(p *PathExpr, frozen *graph.Frozen, maxStates int, metrics *obs.EvalMetrics) *pathMatcher {
	key := p.String()
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.m[key]
	metrics.RecordNFA(ok)
	if !ok {
		m = newPathMatcher(p, frozen, maxStates)
		c.m[key] = m
	}
	return m
}
