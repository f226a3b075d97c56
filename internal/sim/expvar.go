package sim

import (
	"expvar"
	"sync/atomic"
)

// Cumulative process-wide counters for the instrumented tier, published
// under /debug/vars for any process that serves expvar (cmd/obsreport
// exposes the endpoint behind its -http flag). Only Observe updates them;
// the uninstrumented tiers never touch expvar.
var (
	observedRuns        = expvar.NewInt("sim_observed_runs")
	observedBranches    = expvar.NewInt("sim_observed_branches")
	observedMispredicts = expvar.NewInt("sim_observed_mispredicts")
)

// counterShards is the shard count of the scheduler counters; a power of
// two so the shard pick is a mask, sized past any plausible worker count
// on the target boxes.
const counterShards = 16

// shardedCounter is an expvar-published int64 counter striped over
// cache-line-padded shards. The scheduler's progress counters sit on the
// per-job path of every pool worker; a single expvar.Int there is a
// contended cache line every worker bounces on every job — exactly the
// kind of per-job overhead the pool is supposed to amortize. Each worker
// adds to its own shard (the sequential path uses shard 0) and readers
// sum the shards through the published expvar.Func, so the counter names
// and their /debug/vars semantics are unchanged.
type shardedCounter struct {
	shards [counterShards]struct {
		n atomic.Int64
		_ [56]byte // pad to a 64-byte line so two shards never share one
	}
}

// newShardedCounter publishes a sharded counter under name. The published
// value is the shard sum as an int64, like the expvar.Int it replaces.
func newShardedCounter(name string) *shardedCounter {
	c := &shardedCounter{}
	expvar.Publish(name, expvar.Func(func() any { return c.Value() }))
	return c
}

// add adds delta to the counter on the given shard (any int; masked).
func (c *shardedCounter) add(shard int, delta int64) {
	c.shards[shard&(counterShards-1)].n.Add(delta)
}

// Value returns the current total across shards.
func (c *shardedCounter) Value() int64 {
	var sum int64
	for i := range c.shards {
		sum += c.shards[i].n.Load()
	}
	return sum
}

// Scheduler progress counters, updated by Scheduler.Do on every path
// (pool and sequential alike, so the expvar surface does not depend on
// the worker count): jobs currently executing, and jobs finished since
// process start (including jobs that panicked and were recovered).
var (
	schedInFlight  = newShardedCounter("sim_sched_jobs_inflight")
	schedCompleted = newShardedCounter("sim_sched_jobs_completed")
)

// schedCancelled counts jobs whose slot ended context.Canceled because
// the suite was canceled before or during them.
var schedCancelled = newShardedCounter("sim_sched_cancelled")
