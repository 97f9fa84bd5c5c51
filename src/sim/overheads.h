/**
 * @file
 * Per-operation cost constants for the cluster simulators.
 *
 * The simulators reproduce queueing behaviour; these constants inject the
 * mechanism costs. Of the TQ-side values, switch_overhead = 40 and
 * response_cost = 20 are set by hand, and dispatch_cost = 28 comes from
 * the 2026-08-07 run of bench/misc_dispatcher_throughput (ROADMAP
 * "Sim constants from measurements"). The Shinjuku-side values come
 * from the paper's characterization of that system (sections 1, 5.6,
 * 6); the Caladan model keeps its own constants (sim/caladan.cc).
 */
#ifndef TQ_SIM_OVERHEADS_H
#define TQ_SIM_OVERHEADS_H

#include "common/units.h"

namespace tq::sim {

/** Mechanism costs, all in nanoseconds. */
struct Overheads
{
    /**
     * Cost charged to a worker core per preemption (context switch plus
     * amortized probing). TQ: coroutine yield (tens of ns) + probe
     * amortization. Shinjuku: ~1us interrupt delivery (paper section 1).
     */
    SimNanos switch_overhead = 40;

    /**
     * Dispatcher work per *job* (poll packet, pick core, push to ring).
     * The paper quotes ~14 Mrps (section 6) => ~70 ns/job for the
     * per-request path. 28 is the 16-worker figure (27.7 ns/job) of the
     * 2026-08-07 run of bench/misc_dispatcher_throughput, when that
     * bench timed a hand-copied version of the batched packed-view loop
     * (DESIGN.md §4c). The bench now times Runtime::dispatch_step()
     * itself; BENCH_dispatch.json records both runs. Re-pinning this
     * constant from the shipped path is a separate change (it moves
     * every sim output).
     */
    SimNanos dispatch_cost = 28;

    /**
     * Front-tier steering cost per *request* in a sharded-dispatcher
     * cluster (num_dispatchers > 1, DESIGN.md §4g): the submitter's
     * scan of the per-shard load lines plus the rotated-JSQ compare
     * (common/shard.h pick_min_rotated). Charged as pure latency, not
     * a serial resource — submitters are many and run in parallel, so
     * the front tier delays each request but imposes no aggregate
     * throughput ceiling. bench/fig17_sharded_dispatcher's front-pick
     * micro recorded 7.4, 7.3, 14.4 and 29.1 ns at 2, 4, 8 and 16
     * shards (BENCH_dispatch.json sharded_scaling.front_tier_pick_ns),
     * so 5 ns is below every recorded row. It stays because re-pinning
     * it moves every sharded sim output; that belongs with re-pinning
     * the other sim constants (ROADMAP's calibration item). Unused at
     * num_dispatchers = 1 (no front tier exists).
     */
    SimNanos front_tier_cost = 5;

    /**
     * Centralized scheduler work per *scheduling operation* (enqueue or
     * quantum grant). Shinjuku-class dispatchers sustain ~5 Mrps
     * (paper section 6) => ~200 ns/op.
     */
    SimNanos sched_op_cost = 210;

    /** Per-request cost on the response path at the worker. */
    SimNanos response_cost = 20;

    /** TQ overheads with values calibrated from the real mechanisms. */
    static Overheads
    tq_default()
    {
        return Overheads{};
    }

    /** Idealized zero-overhead scheduling (Figures 1, 4). */
    static Overheads
    ideal()
    {
        Overheads o;
        o.switch_overhead = 0;
        o.dispatch_cost = 0;
        o.front_tier_cost = 0;
        o.sched_op_cost = 0;
        o.response_cost = 0;
        return o;
    }

    /** Shinjuku-style interrupt-driven centralized scheduling: ~1us
     *  interrupt latency per preemption (paper section 1) on top of the
     *  default ~5 Mrps centralized dispatcher (sched_op_cost). */
    static Overheads
    shinjuku_default()
    {
        Overheads o;
        o.switch_overhead = us(1);
        return o;
    }
};

} // namespace tq::sim

#endif // TQ_SIM_OVERHEADS_H
