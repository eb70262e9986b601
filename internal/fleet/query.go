package fleet

import (
	"context"

	"strudel/internal/struql"
)

// This file is the query workload's seam into the fleet: the query API
// evaluates StruQL conditions against one replica's generation-pinned
// snapshot, through the same gray-failure machinery (health-ordered
// routing, hedging, breakers, failover) page fetches use. The closure
// signature is deliberately an unnamed func type so packages can depend
// on the capability without importing fleet.

// EvalSource runs an evaluation closure against this replica's data
// snapshot, handing it the source and generation from one atomic read,
// under the same life-context and panic discipline Render uses.
func (r *Replica) EvalSource(ctx context.Context, fn func(context.Context, struql.Source, int64) (string, error)) (string, int64, error) {
	return r.run(ctx, func(ctx context.Context) (string, int64, error) {
		src, gen := r.srv.Ev.SourceGen()
		out, err := fn(ctx, src, gen)
		return out, gen, err
	})
}

// EvalOn routes an evaluation closure to the shard owning key and runs
// it on a live replica there under the gray-failure policy. Queries
// thereby inherit everything pages get: hot-reload generation
// snapshots, health-ordered replica selection, hedging, and failover.
// Deterministic evaluation errors (parse problems, guard trips,
// generation mismatches) are NOT failed over — a sibling replica on the
// same generation would fail identically — while refusals from down
// replicas and timeouts are retried on siblings until the shard is
// exhausted (then ErrShardDown with a Retry-After hint). Queries always
// run in-process, whatever the page transport.
func (f *Fleet) EvalOn(ctx context.Context, key string, fn func(context.Context, struql.Source, int64) (string, error)) (string, int64, error) {
	shard := f.Route(key)
	return f.gray.fetch(ctx, shard, func(ctx context.Context, idx int) (string, int64, error) {
		return f.grid[shard][idx].EvalSource(ctx, fn)
	})
}
